#include "workload/io.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <new>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/framed.hpp"

namespace wcm::workload {

namespace {
constexpr std::string_view kMagic = "WCMI";
constexpr std::uint32_t kVersionV1 = 1;
}  // namespace

void write_binary(const std::filesystem::path& path,
                  const std::vector<word>& keys) {
  WCM_SPAN("io.write_binary");
  std::ofstream os(path, std::ios::binary);
  WCM_FAILPOINT("io.write.fail", io_error, "injected write failure");
  WCM_CHECK_IO(os.is_open(),
               "cannot open output file: " + path.string());

  framed::Writer out(kMagic, wcmi_version);
  out.put(static_cast<std::uint64_t>(keys.size()));
  for (const word k : keys) {
    WCM_EXPECTS(k >= std::numeric_limits<std::int32_t>::min() &&
                    k <= std::numeric_limits<std::int32_t>::max(),
                "key does not fit in int32");
    out.put(static_cast<std::int32_t>(k));
  }
  out.seal();
  os << out.bytes();
  WCM_CHECK_IO(static_cast<bool>(os), "write failed: " + path.string());
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("workload.io.write.bytes")
        .add(out.bytes().size());
  }
}

std::vector<word> read_binary(const std::filesystem::path& path) {
  WCM_SPAN("io.read_binary");
  WCM_FAILPOINT("io.read.open", io_error, "injected open failure");
  framed::Reader in(kMagic, path);
  in.magic();
  const std::uint32_t version = in.version({kVersionV1, wcmi_version});
  const std::uint64_t n = in.count("element count", max_wcmi_keys);
  const std::uint64_t payload_bytes = n * sizeof(std::int32_t);
  // v2 is exact; v1 has no seal and tolerates trailing bytes.  Both are
  // checked against the file before anything is allocated.
  if (version == wcmi_version) {
    in.end(payload_bytes + sizeof(std::uint64_t));
  }
  const std::string_view payload = in.bytes(payload_bytes, "keys");

  WCM_FAILPOINT("io.read.alloc", io_error, "injected allocation failure");
  std::vector<word> keys;
  try {
    keys.reserve(n);
  } catch (const std::bad_alloc&) {
    throw io_error("cannot allocate " + std::to_string(n) +
                       " keys for WCMI payload",
                   path.string());
  }
  for (std::size_t off = 0; off < payload.size(); off += sizeof(std::int32_t)) {
    keys.push_back(framed::load_le<std::int32_t>(payload.data() + off));
  }
  WCM_FAILPOINT("io.read.truncated", io_error, "injected short read");

  if (version == wcmi_version) {
    WCM_FAILPOINT("io.read.checksum", io_error,
                  "injected checksum mismatch");
    try {
      in.seal();  // the exact-size check leaves a mismatch as its only fault
    } catch (const io_error&) {
      if (telemetry::enabled()) {
        telemetry::registry().counter("workload.io.checksum.failures").add(1);
      }
      throw;
    }
  }

  if (telemetry::enabled()) {
    telemetry::registry().counter("workload.io.read.bytes").add(in.size());
  }
  return keys;
}

void write_csv(const std::filesystem::path& path,
               const std::vector<word>& keys) {
  WCM_SPAN("io.write_csv");
  std::ofstream os(path);
  WCM_CHECK_IO(os.is_open(),
               "cannot open output file: " + path.string());
  os << "key\n";
  for (const word k : keys) {
    os << k << '\n';
  }
  WCM_CHECK_IO(static_cast<bool>(os), "write failed: " + path.string());
}

}  // namespace wcm::workload
