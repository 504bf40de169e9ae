// Routing metrics, the deterministic "infinitesimal padding" used to
// realize Theorem 3's unique-shortest-path base sets, and the tiebreaking
// policies that select WHICH unique path padding picks.
//
// The paper selects a single shortest path per pair by padding edge weights
// with infinitesimals. We realize the padding with integers: each edge gets
// an augmented weight  w(e) * kPadScale + salt(e)  where salt(e) is a
// deterministic value in [1, kMaxSalt]. Because any path has fewer than
// kPadScale / kMaxSalt hops, a strictly cheaper true cost is always
// strictly cheaper after padding — so padded-shortest paths are true
// shortest paths, and ties are broken (generically uniquely) by salt.
//
// Padding fixes *a* tiebreak; the salt scheme decides *which*. Bodwin and
// Parter ("Restorable Shortest Path Tiebreaking", arXiv:2102.10174) show
// that the choice matters for restoration: the right tiebreaking lets
// replacement paths be expressed from fewer base subpaths. TiebreakPolicy
// selects the scheme; it is part of the SPF flavor (SpfOptions) and of
// every cache key that stores padded trees, so two policies never alias.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace rbpc::spf {

/// Which cost a route minimizes.
enum class Metric {
  Hops,      ///< every link costs 1 (the paper's "unweighted" case)
  Weighted,  ///< link weights (the paper's OSPF-weight case)
};

/// How equal-cost ties are broken under deterministic padding. All three
/// are fully deterministic; they differ only in which of the tied shortest
/// paths becomes canonical.
enum class TiebreakPolicy : std::uint8_t {
  /// Pseudo-random per-edge salts (the seed behavior): a fixed but
  /// structure-blind choice — the "arbitrary tiebreaking" the restoration
  /// lemmas assume in the worst case.
  Arbitrary = 0,
  /// Salts monotone in edge id: ties resolve toward the lexicographically
  /// smallest edge sequence, yielding a globally consistent linear order.
  Lexicographic = 1,
  /// Hop-dominant salts: among equal-cost paths prefer the one with fewer
  /// hops, then lexicographic. Fewer-hop canonical paths route through
  /// long-reach "express" edges shared by many pairs, which concentrates
  /// the canonical path system and grows the surviving subpaths
  /// restoration can reuse (the Bodwin–Parter restorability direction).
  /// Hop dominance is exact for paths up to kRestorableHopLimit hops.
  Restorable = 2,
};

/// Number of distinct TiebreakPolicy values (for cache-key packing).
inline constexpr std::size_t kNumTiebreakPolicies = 3;

/// Short stable name for bench tables and JSON artifacts.
const char* to_string(TiebreakPolicy policy);

inline constexpr graph::Weight kPadScale = 1 << 30;
inline constexpr graph::Weight kMaxSalt = 1 << 14;
/// Restorable salts are hop-dominant only while per-edge jitter cannot
/// accumulate past one hop bias: paths longer than this may break the
/// fewer-hops preference (they still get a deterministic tiebreak).
inline constexpr std::size_t kRestorableHopLimit = 1000;

/// True cost of one edge under `metric`.
inline graph::Weight metric_weight(const graph::Graph& g, graph::EdgeId e,
                                   Metric metric) {
  return metric == Metric::Hops ? 1 : g.weight(e);
}

namespace detail {

// The seed's pseudo-random salt: SplitMix64 of the edge id; fixed basis so
// salts are stable across runs. Must stay bit-identical — every pre-policy
// padded tree, cache entry, and golden result was computed with it.
inline graph::Weight arbitrary_salt(graph::EdgeId e) {
  std::uint64_t s = 0xA5A5A5A55A5A5A5Aull ^ (static_cast<std::uint64_t>(e) + 1);
  const std::uint64_t mixed = splitmix64(s);
  return static_cast<graph::Weight>(mixed % static_cast<std::uint64_t>(kMaxSalt)) + 1;
}

// Salts strictly increasing in edge id: a path's salt sum compares
// lexicographically-by-smallest-usable-edge among equal-cost, equal-length
// alternatives, and lower-id edges are always preferred at equal cost.
inline graph::Weight lexicographic_salt(graph::EdgeId e) {
  return static_cast<graph::Weight>(
             static_cast<std::uint64_t>(e) %
             static_cast<std::uint64_t>(kMaxSalt - 1)) +
         1;
}

// Hop-dominant salts: every edge pays a large fixed bias plus a small
// jitter, so a path's salt sum is (hops * kHopBias + small). Among
// equal-cost paths the fewer-hop one always wins while accumulated jitter
// stays under one bias — i.e. for paths up to kRestorableHopLimit hops,
// since kRestorableHopLimit * (kJitter - 1) < kHopBias. Jitter (from the
// edge id) breaks remaining fewer-hop ties deterministically.
inline constexpr graph::Weight kHopBias = kMaxSalt / 2;  // 2^13
inline constexpr graph::Weight kJitter = 8;
static_assert(kRestorableHopLimit * (kJitter - 1) < kHopBias,
              "restorable salts must stay hop-dominant up to the hop limit");
static_assert(kHopBias + kJitter <= kMaxSalt,
              "restorable salts must fit the padding budget");

inline graph::Weight restorable_salt(graph::EdgeId e) {
  std::uint64_t s = 0xC3C3C3C33C3C3C3Cull ^ (static_cast<std::uint64_t>(e) + 1);
  const std::uint64_t mixed = splitmix64(s);
  return kHopBias + 1 +
         static_cast<graph::Weight>(mixed % static_cast<std::uint64_t>(kJitter));
}

}  // namespace detail

/// Deterministic per-edge padding salt in [1, kMaxSalt] under `policy`.
/// Inline: the SPF kernels, the cut scan and repair price every relaxed arc
/// with it.
inline graph::Weight padding_salt(
    graph::EdgeId e, TiebreakPolicy policy = TiebreakPolicy::Arbitrary) {
  switch (policy) {
    case TiebreakPolicy::Lexicographic:
      return detail::lexicographic_salt(e);
    case TiebreakPolicy::Restorable:
      return detail::restorable_salt(e);
    case TiebreakPolicy::Arbitrary:
      break;
  }
  return detail::arbitrary_salt(e);
}

/// Augmented (padded) cost of one edge under `metric` and `policy`.
inline graph::Weight padded_weight(
    const graph::Graph& g, graph::EdgeId e, Metric metric,
    TiebreakPolicy policy = TiebreakPolicy::Arbitrary) {
  return metric_weight(g, e, metric) * kPadScale + padding_salt(e, policy);
}

}  // namespace rbpc::spf
