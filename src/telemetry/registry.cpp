#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <ostream>
#include <sstream>

#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace wcm::telemetry {

namespace {

std::atomic<bool> g_enabled{false};

/// Canonical instrument key: `name{k=v,...}` with labels sorted by key.
/// Doubles as the deterministic sort key for snapshot rows, so dumps are
/// byte-stable regardless of registration order or thread interleaving.
std::string instrument_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  key.push_back('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      key.push_back(',');
    }
    key += labels[i].first;
    key.push_back('=');
    key += labels[i].second;
  }
  key.push_back('}');
  return key;
}

void sort_labels(Labels& labels) {
  std::sort(labels.begin(), labels.end());
}

/// Render a double with enough digits to round-trip, but as "N" (no
/// trailing ".0") when it is integral — keeps text dumps readable and
/// JSON numbers strict.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<double> log_scale_bounds(double lo, double hi, u32 per_decade) {
  if (!(lo > 0.0) || !(hi > lo) || per_decade == 0) {
    throw contract_error(
        "log_scale_bounds requires 0 < lo < hi and per_decade >= 1");
  }
  std::vector<double> bounds;
  const double lg_lo = std::log10(lo);
  for (u32 i = 0;; ++i) {
    const double bound = std::pow(10.0, lg_lo + static_cast<double>(i) /
                                                    per_decade);
    bounds.push_back(bound);
    if (bound >= hi) {
      break;
    }
  }
  return bounds;
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<u64>& buckets, double q) noexcept {
  u64 total = 0;
  for (const u64 n : buckets) {
    total += n;
  }
  if (total == 0 || bounds.empty()) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation, 1-based; q=0 selects the first.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  u64 seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) < rank) {
      continue;
    }
    if (i >= bounds.size()) {
      return bounds.back();  // overflow bucket: clamp to the last bound
    }
    const double upper = bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const u64 before = seen - buckets[i];
    const double within =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * within;
  }
  return bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw contract_error("histogram bucket bounds must be sorted");
  }
  buckets_ = std::make_unique<std::atomic<u64>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::counter:
      return "counter";
    case MetricKind::gauge:
      return "gauge";
    case MetricKind::histogram:
      return "histogram";
  }
  return "counter";
}

namespace {

struct Instrument {
  std::string name;
  Labels labels;  // sorted
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  // Keyed by instrument_key(); std::map iteration order is the snapshot
  // row order, so dumps are deterministic by construction.
  std::map<std::string, Instrument> instruments;
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter& Registry::counter(const std::string& name, Labels labels) {
  sort_labels(labels);
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->instruments.find(key);
  if (it == impl_->instruments.end()) {
    Instrument inst;
    inst.name = name;
    inst.labels = std::move(labels);
    inst.kind = MetricKind::counter;
    inst.counter = std::make_unique<Counter>();
    it = impl_->instruments.emplace(key, std::move(inst)).first;
  } else if (it->second.kind != MetricKind::counter) {
    throw contract_error("metric '" + key + "' already registered as " +
                         to_string(it->second.kind));
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  sort_labels(labels);
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->instruments.find(key);
  if (it == impl_->instruments.end()) {
    Instrument inst;
    inst.name = name;
    inst.labels = std::move(labels);
    inst.kind = MetricKind::gauge;
    inst.gauge = std::make_unique<Gauge>();
    it = impl_->instruments.emplace(key, std::move(inst)).first;
  } else if (it->second.kind != MetricKind::gauge) {
    throw contract_error("metric '" + key + "' already registered as " +
                         to_string(it->second.kind));
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(const std::string& name, Labels labels,
                               std::vector<double> bounds) {
  sort_labels(labels);
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->instruments.find(key);
  if (it == impl_->instruments.end()) {
    Instrument inst;
    inst.name = name;
    inst.labels = std::move(labels);
    inst.kind = MetricKind::histogram;
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = impl_->instruments.emplace(key, std::move(inst)).first;
  } else if (it->second.kind != MetricKind::histogram) {
    throw contract_error("metric '" + key + "' already registered as " +
                         to_string(it->second.kind));
  } else if (it->second.histogram->bounds() != bounds) {
    throw contract_error("histogram '" + key +
                         "' re-registered with different bucket bounds");
  }
  return *it->second.histogram;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->instruments.clear();
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->instruments.size();
}

Snapshot Registry::snapshot() const {
  WCM_FAILPOINT("telemetry.registry.snapshot", simulation_error,
                "injected registry snapshot failure");
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    snap.rows.reserve(impl_->instruments.size());
    for (const auto& [key, inst] : impl_->instruments) {
      MetricRow row;
      row.name = inst.name;
      row.labels = inst.labels;
      row.kind = inst.kind;
      switch (inst.kind) {
        case MetricKind::counter:
          row.counter_value = inst.counter->value();
          break;
        case MetricKind::gauge:
          row.gauge_value = inst.gauge->value();
          break;
        case MetricKind::histogram:
          row.hist_count = inst.histogram->count();
          row.hist_sum = inst.histogram->sum();
          row.hist_bounds = inst.histogram->bounds();
          row.hist_buckets = inst.histogram->bucket_counts();
          break;
      }
      snap.rows.push_back(std::move(row));
    }
  }
  // Fold fired failpoints in as synthetic counters, so "failpoint trips"
  // show up next to the I/O byte counts they explain.  known() is sorted,
  // and the rows sort after any real metric of the same name prefix
  // anyway because the full set is re-sorted below.
  for (const std::string& name : failpoint::known()) {
    const u64 trips = failpoint::triggers(name);
    if (trips == 0) {
      continue;
    }
    MetricRow row;
    row.name = "failpoint.triggers";
    row.labels = {{"name", name}};
    row.kind = MetricKind::counter;
    row.counter_value = trips;
    snap.rows.push_back(std::move(row));
  }
  // Span-buffer overflow is tallied in the tracer (telemetry/span.cpp),
  // not through an instrument handle; surface it as a synthetic counter
  // so the daemon's metrics op reports trace degradation.
  if (const u64 dropped = dropped_spans(); dropped > 0) {
    MetricRow row;
    row.name = "telemetry.dropped_spans";
    row.kind = MetricKind::counter;
    row.counter_value = dropped;
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return instrument_key(a.name, a.labels) <
                     instrument_key(b.name, b.labels);
            });
  return snap;
}

void Snapshot::write_text(std::ostream& os) const {
  for (const MetricRow& row : rows) {
    os << instrument_key(row.name, row.labels) << ' ';
    switch (row.kind) {
      case MetricKind::counter:
        os << row.counter_value;
        break;
      case MetricKind::gauge:
        os << format_number(row.gauge_value);
        break;
      case MetricKind::histogram: {
        os << "count=" << row.hist_count
           << " sum=" << format_number(row.hist_sum) << " buckets=[";
        for (std::size_t i = 0; i < row.hist_buckets.size(); ++i) {
          if (i > 0) {
            os << ',';
          }
          if (i < row.hist_bounds.size()) {
            os << "le" << format_number(row.hist_bounds[i]) << ':';
          } else {
            os << "le+inf:";
          }
          os << row.hist_buckets[i];
        }
        os << ']';
        break;
      }
    }
    os << '\n';
  }
}

void Snapshot::write_json(std::ostream& os) const {
  os << "{\"metrics\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const MetricRow& row = rows[r];
    if (r > 0) {
      os << ',';
    }
    os << "{\"name\":";
    json::write_string(os, row.name);
    os << ",\"labels\":{";
    for (std::size_t i = 0; i < row.labels.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      json::write_string(os, row.labels[i].first);
      os << ':';
      json::write_string(os, row.labels[i].second);
    }
    os << "},\"kind\":\"" << to_string(row.kind) << '"';
    switch (row.kind) {
      case MetricKind::counter:
        os << ",\"value\":" << row.counter_value;
        break;
      case MetricKind::gauge:
        os << ",\"value\":" << format_number(row.gauge_value);
        break;
      case MetricKind::histogram: {
        os << ",\"count\":" << row.hist_count
           << ",\"sum\":" << format_number(row.hist_sum) << ",\"buckets\":[";
        for (std::size_t i = 0; i < row.hist_buckets.size(); ++i) {
          if (i > 0) {
            os << ',';
          }
          os << "{\"le\":";
          if (i < row.hist_bounds.size()) {
            os << format_number(row.hist_bounds[i]);
          } else {
            os << "null";
          }
          os << ",\"count\":" << row.hist_buckets[i] << '}';
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}\n";
}

u64 Snapshot::counter_total(const std::string& name) const noexcept {
  u64 total = 0;
  for (const MetricRow& row : rows) {
    if (row.kind == MetricKind::counter && row.name == name) {
      total += row.counter_value;
    }
  }
  return total;
}

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace wcm::telemetry
