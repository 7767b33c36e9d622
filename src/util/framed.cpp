#include "util/framed.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <system_error>

#include "util/check.hpp"
#include "util/error.hpp"

namespace wcm::framed {

Writer::Writer(std::string_view magic, std::uint32_t version)
    : hash_(fnv_offset_basis) {
  WCM_EXPECTS(magic.size() == 4, "a magic is 4 bytes");
  raw(magic);
  put(version);
}

void Writer::blob(std::string_view bytes) {
  put(static_cast<u64>(bytes.size()));
  raw(bytes);
}

void Writer::seal() {
  const u64 chain = hash_;
  put(chain);
  hash_ = chain;  // the seal itself stays out of the chain
}

void Writer::raw(std::string_view bytes) {
  out_.append(bytes);
  hash_ = fnv1a(hash_, bytes);
}

Reader::Reader(std::string_view format, std::filesystem::path path)
    : format_(format), path_(std::move(path)) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  std::ifstream is(path_, std::ios::binary);
  if (ec || !is.is_open()) {
    fail("cannot open " + format_ + " file");
  }
  bytes_.resize(static_cast<std::size_t>(size));
  is.read(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  if (static_cast<std::size_t>(is.gcount()) != bytes_.size()) {
    fail("cannot read " + format_ + " file");
  }
}

void Reader::magic() {
  if (bytes(format_.size(), "magic") != format_) {
    fail("not a " + format_ + " file");
  }
}

std::uint32_t Reader::version(std::initializer_list<std::uint32_t> accepted) {
  const auto v = get<std::uint32_t>("version");
  if (std::find(accepted.begin(), accepted.end(), v) == accepted.end()) {
    fail("unsupported " + format_ + " version " + std::to_string(v));
  }
  return v;
}

u64 Reader::count(const char* what, u64 cap, u64 min) {
  const u64 n = get<u64>(what);
  if (n > cap || n < min) {
    fail(format_ + " " + what + " " + std::to_string(n) + " is outside [" +
         std::to_string(min) + ", " + std::to_string(cap) + "]");
  }
  return n;
}

std::string_view Reader::bytes(u64 len, const char* what) {
  if (len > remaining()) {
    fail("truncated " + format_ + " file (" + what + ")");
  }
  const std::string_view out(bytes_.data() + pos_,
                             static_cast<std::size_t>(len));
  pos_ += out.size();
  hash_ = fnv1a(hash_, out);
  return out;
}

std::string_view Reader::blob(const char* what, u64 cap, u64 min) {
  return bytes(count(what, cap, min), what);
}

void Reader::seal() {
  const u64 chain = hash_;
  const u64 stored = get<u64>("checksum");
  hash_ = chain;  // the seal itself stays out of the chain
  if (stored != chain) {
    fail(format_ + " checksum mismatch");
  }
}

bool Reader::sealed_ahead(std::size_t payload) const noexcept {
  if (remaining() < payload || remaining() - payload < sizeof(u64)) {
    return false;
  }
  const char* p = bytes_.data() + pos_;
  return load_le<u64>(p + payload) == fnv1a(hash_, p, payload);
}

void Reader::end(u64 rest) const {
  if (remaining() != rest) {
    fail((remaining() < rest ? "truncated " : "trailing bytes in ") + format_ +
         " file (" + std::to_string(remaining()) + " bytes left, " +
         std::to_string(rest) + " expected)");
  }
}

void Reader::fail(const std::string& what) const {
  throw io_error(what + ": " + path_.string());
}

bool foreign(const std::filesystem::path& path, std::string_view magic) {
  std::ifstream is(path, std::ios::binary);
  std::string head(magic.size(), '\0');
  is.read(head.data(), static_cast<std::streamsize>(head.size()));
  return static_cast<std::size_t>(is.gcount()) == head.size() && head != magic;
}

void replace_file(const std::filesystem::path& path, std::string_view bytes,
                  std::string_view format) {
  // pid + serial keeps concurrent stores of one target apart; the last
  // rename wins with a whole file.
  static std::atomic<u64> serial{0};
  std::filesystem::path tmp = path;
  tmp += ".tmp-" + std::to_string(::getpid()) + "-" +
         std::to_string(serial.fetch_add(1));
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  std::error_code ec;
  if (os) {
    std::filesystem::rename(tmp, path, ec);
  }
  if (!os || ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw io_error("cannot write " + std::string(format) + " file" +
                   (ec ? " (" + ec.message() + ")" : "") + ": " +
                   path.string());
  }
}

}  // namespace wcm::framed
