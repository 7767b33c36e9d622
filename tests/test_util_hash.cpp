// Digest-pinning tests for the shared FNV-1a implementation
// (util/hash.hpp).  Three on-disk/derived formats chain this hash — WCMI
// checksums, WCMC cache keys, and the symbolic prover's report digests —
// so the constants and the byte-for-byte digest values are pinned against
// the published FNV-1a 64-bit reference vectors.  If any of these tests
// fail, every existing WCMI/WCMC file in the wild is invalidated: that
// must be a deliberate format bump, never an accident.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/hash.hpp"

namespace wcm {
namespace {

TEST(UtilHash, ConstantsMatchFnv1a64Reference) {
  EXPECT_EQ(fnv_offset_basis, 14695981039346656037ULL);
  EXPECT_EQ(fnv_offset_basis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv_prime, 1099511628211ULL);
  EXPECT_EQ(fnv_prime, 0x100000001b3ULL);
}

TEST(UtilHash, PinsPublishedReferenceVectors) {
  // Vectors from the FNV reference distribution (fnv64a of short strings).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("b"), 0xaf63df4c8601f1a5ULL);
  EXPECT_EQ(fnv1a("c"), 0xaf63de4c8601eff2ULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a("chongo was here!\n"), 0x46810940eff5f915ULL);
}

TEST(UtilHash, ChainingEqualsOneShot) {
  // Hashing a split string through a chained state must equal hashing the
  // concatenation — the property the WCMI/WCMC writers rely on when they
  // mix header fields one at a time.
  const std::string text = "WCMI-header-then-payload";
  const u64 whole = fnv1a(text);
  u64 h = fnv_offset_basis;
  h = fnv1a(h, text.substr(0, 4));
  h = fnv1a(h, text.data() + 4, text.size() - 4);
  EXPECT_EQ(h, whole);
}

TEST(UtilHash, BinaryFieldChainIsStable) {
  // A WCMC-key-style chain over binary fields: pin the digest so a change
  // to the hash silently re-keying every cache shows up here first.
  const std::uint32_t version = 1;
  const std::uint64_t n = 1024;
  u64 h = fnv_offset_basis;
  h = fnv1a(h, "WCMC");
  h = fnv1a(h, &version, sizeof(version));
  h = fnv1a(h, &n, sizeof(n));
  EXPECT_EQ(h, 0xc690b0fd356999eaULL);
}

TEST(UtilHash, SeededChainsDiffer) {
  EXPECT_NE(fnv1a("key"), fnv1a(fnv1a("salt"), "key"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(UtilHash, Hex16IsSixteenZeroPaddedLowercaseDigits) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0xabcULL), "0000000000000abc");
  EXPECT_EQ(hex16(fnv1a("foobar")), "85944171f73967e8");
  EXPECT_EQ(hex16(~u64{0}), "ffffffffffffffff");
}

}  // namespace
}  // namespace wcm
