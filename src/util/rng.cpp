#include "util/rng.hpp"

#include <algorithm>
#include <unordered_set>

namespace rbpc {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  require(bound > 0, "Rng::below: bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // = 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::range: lo must not exceed hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t n, std::uint64_t k) {
  require(k <= n, "Rng::sample_distinct: k must not exceed n");
  // Floyd's algorithm: iterate j over the last k values of [0, n) and insert
  // either a random value below j or j itself when the former collides.
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = below(j + 1);
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace rbpc
