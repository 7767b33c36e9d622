#pragma once
// One codec for the checksummed binary files: WCMI inputs (workload/io),
// WCMC cell caches (runtime/cache), WCMJ campaign journals
// (runtime/journal) and WCMS daemon response caches (serve/tenant_cache).
// The shared framing (docs/API.md) is little-endian: a 4-byte magic, a u32
// version, the format's fields, and a u64 FNV-1a seal over every byte
// before it.  Writer keeps the running hash; seal() appends it unhashed,
// once at a file's end or after every WCMJ record.  Reader takes a field
// only when that many bytes remain, so a corrupt count or length never
// allocates more than the file holds.  Each Reader failure is an io_error
// naming the format, the path and one kind: truncated, bad magic,
// unsupported version, count out of range, checksum mismatch, or trailing
// bytes.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/hash.hpp"
#include "util/math.hpp"

namespace wcm::framed {

/// The unsigned integer a 4- or 8-byte field is encoded through.
template <typename T>
using bits_of = std::conditional_t<sizeof(T) == 8, u64, std::uint32_t>;

/// Decode one little-endian 4- or 8-byte integer or double at `p` (for
/// bulk payloads taken whole with Reader::bytes).
template <typename T>
[[nodiscard]] T load_le(const char* p) noexcept {
  static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  bits_of<T> bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bits |= bits_of<T>{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return std::bit_cast<T>(bits);
}

class Writer {
 public:
  /// Continue a chain at `hash` (a journal appending after its prefix).
  explicit Writer(u64 hash) noexcept : hash_(hash) {}
  /// Start a file: the 4-byte `magic`, then the u32 `version`.
  Writer(std::string_view magic, std::uint32_t version);

  /// Append one 4- or 8-byte integer or double.
  template <typename T>
  void put(T value) {
    static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    const auto bits = std::bit_cast<bits_of<T>>(value);
    char le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<char>(bits >> (8 * i));
    }
    raw(std::string_view(le, sizeof(T)));
  }
  /// Append a u64 length, then `bytes`.
  void blob(std::string_view bytes);
  /// Append the running hash as a u64 without hashing it.
  void seal();

  [[nodiscard]] u64 hash() const noexcept { return hash_; }
  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }

 private:
  void raw(std::string_view bytes);

  std::string out_;
  u64 hash_;
};

class Reader {
 public:
  /// Read all of `path` as a file of `format` (its magic: "WCMI", ...).
  Reader(std::string_view format, std::filesystem::path path);

  void magic();
  /// Read the u32 version; it must be one of `accepted`.
  std::uint32_t version(std::initializer_list<std::uint32_t> accepted);
  /// Read one 4- or 8-byte integer or double; `what` names it in errors.
  template <typename T>
  [[nodiscard]] T get(const char* what) {
    return load_le<T>(bytes(sizeof(T), what).data());
  }
  /// Read a u64 count and check min <= count <= cap.
  [[nodiscard]] u64 count(const char* what, u64 cap, u64 min = 0);
  /// Take `len` raw bytes, only when that many remain.
  [[nodiscard]] std::string_view bytes(u64 len, const char* what);
  /// A count() length, then that many bytes.
  [[nodiscard]] std::string_view blob(const char* what, u64 cap, u64 min = 0);

  /// Read the u64 seal and check it against the running hash.
  void seal();
  /// True when `payload` bytes and a matching seal follow.  Consumes
  /// nothing and never throws, so a torn or corrupt tail just reads false;
  /// the caller then reads the payload and seal().
  [[nodiscard]] bool sealed_ahead(std::size_t payload) const noexcept;
  /// Check that the file ends exactly `rest` bytes from here.
  void end(u64 rest = 0) const;

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] u64 hash() const noexcept { return hash_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::string format_;
  std::filesystem::path path_;
  std::string bytes_;
  std::size_t pos_ = 0;
  u64 hash_ = fnv_offset_basis;
};

/// Whether `path` starts with 4 bytes other than `magic` (missing and
/// shorter files are not foreign).
[[nodiscard]] bool foreign(const std::filesystem::path& path,
                           std::string_view magic);

/// Write `bytes` to a sibling temporary of `path` and rename it over
/// `path`, so a failed write leaves the previous file intact and no
/// temporary behind.  Throws wcm::io_error naming `format`.
void replace_file(const std::filesystem::path& path, std::string_view bytes,
                  std::string_view format);

}  // namespace wcm::framed
