#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

namespace json = wcm::json;

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::vector<double> sample) {
  Summary s;
  s.n = sample.size();
  if (sample.empty()) {
    return s;
  }
  std::sort(sample.begin(), sample.end());
  s.q1 = quantile_sorted(sample, 0.25);
  s.median = quantile_sorted(sample, 0.5);
  s.q3 = quantile_sorted(sample, 0.75);
  s.p90 = quantile_sorted(sample, 0.90);
  s.p99 = quantile_sorted(sample, 0.99);
  return s;
}

double windowed_quantile(const std::vector<double>& sample,
                         std::size_t window, double q) {
  const std::size_t windows = std::max<std::size_t>(1, sample.size() / window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = sample.begin() + static_cast<std::ptrdiff_t>(
                                            w * sample.size() / windows);
    const auto last = sample.begin() + static_cast<std::ptrdiff_t>(
                                           (w + 1) * sample.size() / windows);
    std::vector<double> part(first, last);
    std::sort(part.begin(), part.end());
    per_window.push_back(quantile_sorted(part, q));
  }
  return summarize(per_window).median;
}

int Spans::open(const std::string& name, const std::string& layer) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = seconds_between(t0_, Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(t0_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

std::map<std::string, double> Spans::self_seconds() const {
  // Children nest strictly inside their parent on one thread, so the
  // covered part of a span is the sum of its direct children's durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
  }
  return self;
}

std::string Spans::chrome_trace() const {
  json::Array events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    json::Object args;
    args.emplace("layer", json::Value(s.layer));
    args.emplace("span_id", json::Value(static_cast<double>(i)));
    args.emplace("parent_span_id", json::Value(static_cast<double>(s.parent)));
    json::Object e;
    e.emplace("name", json::Value(s.name));
    e.emplace("cat", json::Value(s.layer));
    e.emplace("ph", json::Value(std::string("X")));
    e.emplace("ts", json::Value(s.start * 1e6));
    e.emplace("dur", json::Value((s.end - s.start) * 1e6));
    e.emplace("pid", json::Value(1.0));
    e.emplace("tid", json::Value(1.0));
    e.emplace("args", json::Value(std::move(args)));
    events.push_back(json::Value(std::move(e)));
  }
  json::Object doc;
  doc.emplace("traceEvents", json::Value(std::move(events)));
  return json::to_text(json::Value(std::move(doc)));
}

void Report::fail_check(const std::string& what) {
  correct = false;
  if (check_failures.size() < 32) {
    check_failures.push_back(what);
  }
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.q1 = m.median = m.q3 = value;
  metrics.push_back(std::move(m));
}

void Report::add_sampled(const std::string& name,
                         const std::vector<double>& sample,
                         const std::string& unit) {
  const Summary s = summarize(sample);
  add_derived(name, s.median, unit, sample);
}

void Report::add_derived(const std::string& name, double value,
                         const std::string& unit,
                         const std::vector<double>& sample) {
  const Summary s = summarize(sample);
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.samples = s.n;
  m.q1 = s.q1;
  m.median = s.median;
  m.q3 = s.q3;
  metrics.push_back(std::move(m));
}

namespace {

json::Value metric_value(const Metric& m) {
  json::Object o;
  o.emplace("value", json::Value(m.value));
  o.emplace("unit", json::Value(m.unit));
  return json::Value(std::move(o));
}

}  // namespace

std::string Report::render_line() const {
  json::Object metrics_obj;
  for (const auto& m : metrics) {
    metrics_obj.emplace(m.name, metric_value(m));
  }
  json::Object o;
  o.emplace("correct", json::Value(correct));
  o.emplace("attempted", json::Value(static_cast<double>(attempted)));
  o.emplace("failed", json::Value(static_cast<double>(failed)));
  o.emplace("metrics", json::Value(std::move(metrics_obj)));
  return json::to_text(json::Value(std::move(o)));
}

std::string Report::render_full() const {
  json::Object metrics_obj;
  for (const auto& m : metrics) {
    json::Object o;
    o.emplace("value", json::Value(m.value));
    o.emplace("unit", json::Value(m.unit));
    o.emplace("samples", json::Value(static_cast<double>(m.samples)));
    o.emplace("q1", json::Value(m.q1));
    o.emplace("median", json::Value(m.median));
    o.emplace("q3", json::Value(m.q3));
    metrics_obj.emplace(m.name, json::Value(std::move(o)));
  }
  json::Object prov;
  for (const auto& [k, v] : provenance) {
    prov.emplace(k, json::Value(v));
  }
  json::Object det;
  for (const auto& [k, v] : detail) {
    det.emplace(k, json::Value(v));
  }
  json::Array checks;
  for (const auto& c : check_failures) {
    checks.push_back(json::Value(c));
  }
  json::Object o;
  o.emplace("workload", json::Value(workload));
  o.emplace("seed", json::Value(static_cast<double>(seed)));
  o.emplace("seconds", json::Value(static_cast<double>(seconds)));
  o.emplace("trace", json::Value(trace));
  o.emplace("correct", json::Value(correct));
  o.emplace("check_failures", json::Value(std::move(checks)));
  o.emplace("attempted", json::Value(static_cast<double>(attempted)));
  o.emplace("failed", json::Value(static_cast<double>(failed)));
  o.emplace("metrics", json::Value(std::move(metrics_obj)));
  o.emplace("provenance", json::Value(std::move(prov)));
  o.emplace("detail", json::Value(std::move(det)));
  return json::to_text(json::Value(std::move(o)));
}

}  // namespace perfbench
