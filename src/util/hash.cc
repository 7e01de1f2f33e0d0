#include "util/hash.h"

namespace webevo {
namespace {
constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64Seeded(data, kFnvOffsetBasis);
}

Checksum128 ChecksumOf(std::string_view data) {
  Checksum128 sum;
  sum.lo = Fnv1a64Seeded(data, kFnvOffsetBasis);
  sum.hi = Fnv1a64Seeded(data, 0x84222325cbf29ce4ULL);
  return sum;
}

}  // namespace webevo
