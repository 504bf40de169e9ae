#include "spf/workspace.hpp"

#include "obs/metrics.hpp"

namespace rbpc::spf {

void SpfWorkspace::begin(std::size_t n) {
  if constexpr (obs::kObsEnabled) {
    // One striped add per SPF run — begin() is the single chokepoint every
    // kernel (scratch, BFS, repair) passes through, so this counts total
    // workspace activations; the gauge tracks the largest graph any
    // workspace has been sized for.
    static obs::Counter begins =
        obs::MetricsRegistry::global().counter("spf.workspace.begins");
    static obs::Gauge capacity =
        obs::MetricsRegistry::global().gauge("spf.workspace.capacity");
    begins.add(1);
    capacity.set_max(static_cast<std::int64_t>(n));
  }
  if (nodes_.size() < n) {
    nodes_.resize(n);
    stamp_.resize(n, 0);
  }
  // Epoch 0 is reserved as "never used" for fresh stamps; a bump that wraps
  // to 0 (practically unreachable with 64 bits) would alias old stamps, so
  // skip it defensively.
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  heap_.clear();
  for (std::vector<graph::NodeId>& list : scratch_nodes_) list.clear();
}

SpfWorkspace& thread_workspace() {
  thread_local SpfWorkspace workspace;
  return workspace;
}

}  // namespace rbpc::spf
