#ifndef WEBEVO_UTIL_HASH_H_
#define WEBEVO_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace webevo {

/// 64-bit FNV-1a hash of a byte string.
uint64_t Fnv1a64(std::string_view data);

/// 64-bit FNV-1a with a custom offset basis, used to derive independent
/// hash functions from one implementation.
uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed);

/// Mixes a new 64-bit value into an accumulated hash (Boost-style).
/// Inline: URL hashing and the page-body filler call it per element.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // 64-bit variant of boost::hash_combine with a splitmix-style mixer.
  uint64_t z = value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return seed ^ (z ^ (z >> 31));
}

/// 128-bit content checksum, the crawler's stand-in for the page digest
/// the paper's UpdateModule records "from the last crawl" to detect
/// changes. Two independently seeded FNV-1a streams make accidental
/// collisions on realistic collection sizes negligible.
struct Checksum128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Checksum128&) const = default;
};

/// Computes the checksum of a page body.
Checksum128 ChecksumOf(std::string_view data);

/// Hash functor for checksum-keyed containers (the crawler's content-
/// fingerprint registry). The two halves are already independent hash
/// streams; one extra mix spreads them over the bucket space.
struct Checksum128Hash {
  std::size_t operator()(const Checksum128& c) const {
    return static_cast<std::size_t>(HashCombine(c.hi, c.lo));
  }
};

}  // namespace webevo

#endif  // WEBEVO_UTIL_HASH_H_
