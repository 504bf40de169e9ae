// Counters for the restoration degradation ladder, which RbpcController
// implements once for both of its label plans. The ladder, from best to
// worst:
//   1. the cut rung, else        (one failed link: the route read off two
//      incremental SPT repair     unfailed trees, spf/replacement; else
//                                 view-mask trees repaired from the
//                                 unfailed trees; spf/tree_pool's route())
//   2. from-scratch SPF          (repair fallback inside the cache)
//   3. stale-view forwarding     (no route under the current view: the
//                                 previous FEC entry is retained; drops
//                                 and loops are TTL-guarded and counted)
//   4. no route                  (FEC cleared / NoRouteError from
//                                 send_or_throw)
// Rungs 1-2 are SnapshotTreePool::route, the ladder the batch engine and
// the service share; they are visible through the ladder.* metrics
// (ladder.cut, ladder.cut_fallback, ladder.repaired, ladder.scratch);
// rungs 3-4 are counted here and mirrored into the registry as
// ctl.degrade.stale_fec / ctl.degrade.no_route.
#pragma once

#include <cstddef>

namespace rbpc::core {

struct DegradeStats {
  std::size_t stale_fec = 0;  ///< reroutes that retained a stale chain
  std::size_t no_route = 0;   ///< reroutes that cleared the pair's FEC
  std::size_t degraded_pairs = 0;  ///< pairs currently on a stale chain
};

}  // namespace rbpc::core
