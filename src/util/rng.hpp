// Deterministic pseudo-random number generation for experiments.
//
// Every experiment in the repository is seeded so results are reproducible
// run-to-run; the paper's methodology (random sampling of source/destination
// pairs and failures) is replayed from fixed seeds recorded in
// EXPERIMENTS.md.
//
// The generator is xoshiro256** seeded via SplitMix64, a well-studied
// combination that is fast, has a 2^256-1 period, and — unlike
// std::mt19937 + std::uniform_int_distribution — produces identical streams
// on every platform and standard library.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace rbpc {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and handy as
/// a cheap stateless mixing function (inline: the padding salts mix one
/// edge id per relaxed arc).
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// UniformRandomBitGenerator interface (usable with std::shuffle).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// k distinct values sampled uniformly from [0, n) without replacement.
  /// Precondition: k <= n. Uses Floyd's algorithm: O(k) expected memory.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t n, std::uint64_t k);

  /// Fisher-Yates shuffle of an arbitrary vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each experiment
  /// repetition its own stream so changing one repetition's consumption
  /// pattern does not perturb the others.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace rbpc
