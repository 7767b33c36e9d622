#pragma once
// Serialization of generated inputs: a small binary container (so the
// adversarial inputs can be exported and fed to a real GPU harness) and a
// CSV form for inspection.
//
// WCMI v2 (docs/API.md) is a util/framed.hpp file of a u64 count n and n
// i32 keys (inputs are permutations of 0..n-1, which the paper's
// 4-byte-integer experiments match).  Version 1 files, without the seal,
// remain readable forever; the writer always emits version 2.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "dmm/machine.hpp"

namespace wcm::workload {

using dmm::word;

/// Hard cap on the element count of a WCMI file (2^33 keys = 32 GiB of
/// payload); read_binary rejects anything larger as corrupt.
inline constexpr std::uint64_t max_wcmi_keys = std::uint64_t{1} << 33;

/// The WCMI version write_binary emits.
inline constexpr std::uint32_t wcmi_version = 2;

/// Write keys to `path` in the WCMI v2 binary format (with trailing FNV-1a
/// checksum).  Every key must fit in int32 (contract-checked).  Throws
/// wcm::io_error when the file cannot be written.
void write_binary(const std::filesystem::path& path,
                  const std::vector<word>& keys);

/// Read a WCMI file (version 1 or 2).  Throws wcm::io_error on malformed,
/// truncated, oversized, or checksum-failing content.
[[nodiscard]] std::vector<word> read_binary(const std::filesystem::path& path);

/// Write keys as a one-column CSV with header "key".
void write_csv(const std::filesystem::path& path,
               const std::vector<word>& keys);

}  // namespace wcm::workload
