#include "common/noise.h"

#include "common/error.h"

namespace dpipe {

namespace {

// SplitMix64: small, fast, well-distributed 64-bit mixer.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

NoiseSource::NoiseSource(std::uint64_t seed, double amplitude)
    : seed_(seed), amplitude_(amplitude) {
  DPIPE_REQUIRE(amplitude >= 0.0 && amplitude < 1.0,
                "noise amplitude must be in [0, 1)");
}

double NoiseSource::multiplier(std::uint64_t key) const {
  const std::uint64_t h = mix(seed_ ^ mix(key));
  // Map to [0, 1) with 53-bit precision, then to [1-a, 1+a].
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 1.0 + amplitude_ * (2.0 * unit - 1.0);
}

std::uint64_t NoiseSource::key(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) {
  return mix(a) ^ mix(mix(b) + 0x632be59bd9b4e019ULL) ^
         mix(mix(c) + 0x1d8e4e27c47d124fULL);
}

std::uint64_t NoiseSource::hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dpipe
