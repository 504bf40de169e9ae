// Single-failure replacement routes from two unfailed trees (Theorem 2 with
// k = 1), with no SPF run and no failure mask.
//
// After one link e fails, the new canonical s -> t route is either s's old
// tree path (when e is not on it) or
//
//     canonical(s, x) · (x, y) · reverse(canonical(t, y))
//
// for one link (x, y) that crosses a cut e makes: the Malik–Mittal–Gupta
// cut lemma. D_s is the subtree that e cuts off s's unfailed tree; it
// holds t. (x, y) minimizes key_s(x) + padded_w(x, y) + key_t(y) over the
// links with x outside D_s and y inside it, e excluded. The graph is
// undirected, so the lemma holds from t's end too: D_t is the subtree e
// cuts off t's unfailed tree, which holds s whenever e is on t's tree
// path to s, and the same sum over the links with x inside D_t and y
// outside it has the same minimizer. Bodwin–Wang (arXiv:2309.07964)
// sharpen this restoration lemma; Bodwin–Parter (arXiv:2102.10174) show
// that the tiebreak decides which canonical paths the two halves are.
//
// Exactness. The route must be bit-identical to the tree path that
// repair_tree (equivalently shortest_tree under the mask) produces, under
// every tiebreak policy, even though padding leaves some padded ties. So
// the cut answer is returned only when the shortest route under the mask
// is provably unique. From s's side:
//
//  * any s -> t path P avoiding e enters D_s for the last time over some
//    crossing link (x', y'), and costs at least key_s(x') + padded_w +
//    key_t(y') — each half is at least the unfailed distance, and the
//    graph is undirected, so key_t(y') is also the y' -> t distance. The
//    minimum M over crossing links is therefore a lower bound;
//  * the candidate attains M and avoids e, so it is shortest. Its s half
//    stays outside D_s. Its t half cannot use e: if canonical(t, y)
//    crossed e, it would also cross the cut over some other link
//    (x'', y''), and the triangle inequality in s's tree (key_s(c) =
//    key_s(p) + w(e) for e = (p, c), and key_s(y) = key_s(c) + d(c, y))
//    prices that link at least 2 (w(e) + d(c, y)) below M — contradicting
//    minimality;
//  * if P also costs M, every inequality is tight: (x', y') attains the
//    minimum, and P's halves are unfailed shortest s -> x' and y' -> t
//    paths. The guard then forces P to be the candidate:
//      1. the minimum is strict over all crossing links, parallel links
//         included, so (x', y') = (x, y);
//      2. every node on canonical(s, x) except s has exactly one in-arc
//         attaining its key in s's tree, so the shortest s -> x path is
//         unique (induct backwards from x: a shortest path's last arc
//         attains the key, and the prefix is shortest to its tail);
//      3. the same holds on canonical(t, y) in t's tree.
//    Guards 2 and 3 are properties of the unfailed trees alone, so the
//    SPF kernels store them: they are the unique bits at x in s's tree
//    and at y in t's tree (spf/tree.hpp), and the guard reads two bits
//    instead of scanning every arc of both halves.
//
// From t's side the argument is the mirror image, with D_t for D_s:
//
//  * read from t, any path P avoiding e enters D_t for the last time over
//    some link (y', x'), y' outside and x' inside, and then stays in D_t
//    until s. Its t -> y' part costs at least key_t(y') and its x' -> s
//    part at least key_s(x'), so the minimum M_t of key_t(y') + padded_w +
//    key_s(x') over D_t's crossing links is a lower bound;
//  * the candidate attains M_t and avoids e. Its t half stays outside D_t,
//    so it never reaches e, which hangs D_t below it in t's tree. Its s
//    half cannot use e: if canonical(s, x) crossed e, it would leave D_t
//    over some other link too, and the triangle inequality in t's tree
//    (key_t(c_t) = key_t(p_t) + w(e) for e = (p_t, c_t), and key_t(x) =
//    key_t(c_t) + d(c_t, x)) prices that link at least 2 (w(e) + d(c_t,
//    x)) below M_t — contradicting minimality;
//  * the guard is the same three conditions, with guard 1 taken over D_t's
//    crossing links. Both sides end in a route of the same shape, so where
//    both prove a route they prove the same one.
//
// Which side is scanned. Both lower bounds hold at once, so either side's
// proof is enough. The kernel walks and scans only the cheaper side: the
// trees store each node's subtree arcs (the degree sum over its subtree,
// spf/tree.hpp), which is what the walk and the scan of D_s or D_t read,
// so comparing subtree_arcs(c_s) with subtree_arcs(c_t) picks the side in
// O(1) (D_s on a tie). Near s, e cuts almost all of s's tree off while
// D_t is small, and near t the reverse. Two rules complete it:
//
//  * asymmetry: when e is on canonical(s, t) but not on t's tree path to s
//    (padding can leave canonical(t, s) unequal to the reverse of
//    canonical(s, t)), D_t does not hold s and bounds nothing, so D_s is
//    the only side scanned;
//  * retry: when the chosen side's guard refuses (a tie or a second
//    achiever), the other side is walked and scanned before the answer is
//    kUnproven. A refusal on one side says nothing about the other's cut,
//    so this only adds answers, and the answer never depends on which side
//    went first.
//
// A unique shortest route is the tree path of every shortest-path tree
// under the mask, in particular of repair_tree's. When e is not on s's
// tree path to t, that path is returned without any guard: repair keeps
// every node whose tree path survives, parent and key, verbatim
// (spf/incremental.hpp). Whenever the guard fails on every side scanned —
// and always for unpadded trees (BFS ties follow queue order) or directed
// graphs (t's tree holds t -> y paths, not y -> t ones) — the answer is
// kUnproven and the caller falls back to repair.
//
// Cost: the walk and the scan each read the cheaper side's arcs once,
// min(subtree_arcs(c_s), subtree_arcs(c_t)), plus the two tree paths (a
// retry adds the other side). The only scratch is the workspace's two
// epoch-stamped region flags and node lists, so a warm call allocates
// nothing beyond the output path.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/types.hpp"
#include "spf/tree.hpp"
#include "spf/workspace.hpp"

namespace rbpc::spf {

/// How replacement_route answered.
enum class ReplacementKind : std::uint8_t {
  kIntact = 0,    ///< the failed link is not on s's tree path to t
  kCut = 1,       ///< a cut scan (D_s or D_t) proved a unique route
  kNoRoute = 2,   ///< t is unreachable once the link fails
  kUnproven = 3,  ///< uniqueness not proved: repair the tree instead
};

/// The canonical route from from_s.source() to from_t.source() once link
/// `failed` fails. `from_s` and `from_t` must be full unfailed trees of
/// `g` with the same flavor (metric, padding, tiebreak). On kIntact and
/// kCut, `out` holds the route, bit-identical to the tree path repair_tree
/// produces under the one-link mask; on kNoRoute it is empty; on kUnproven
/// it is untouched. Uses `workspace` as scratch. Throws PreconditionError
/// when the trees disagree with `g` or with each other, or when `failed`
/// is out of range.
ReplacementKind replacement_route(const graph::Graph& g,
                                  const ShortestPathTree& from_s,
                                  const ShortestPathTree& from_t,
                                  graph::EdgeId failed,
                                  SpfWorkspace& workspace, graph::Path& out);

}  // namespace rbpc::spf
