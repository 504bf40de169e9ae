#include "spf/bulk.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

void build_trees(const graph::Graph& g, std::span<const graph::NodeId> sources,
                 const graph::FailureMask& mask, SpfOptions options,
                 ThreadPool& pool, std::span<ShortestPathTree> trees) {
  require(trees.size() == sources.size(),
          "build_trees: one output slot per source required");
  require(options.stop_at == graph::kInvalidNode,
          "build_trees: bulk builds are for full trees only");
  static obs::Counter bulk_sources =
      obs::MetricsRegistry::global().counter("spf.bulk.sources");
  bulk_sources.add(sources.size());
  pool.parallel_for(sources.size(), [&](std::size_t i) {
    shortest_tree_into(g, sources[i], mask, options, thread_workspace(),
                       trees[i]);
  });
}

std::vector<ShortestPathTree> build_trees(const graph::Graph& g,
                                          std::span<const graph::NodeId> sources,
                                          const graph::FailureMask& mask,
                                          SpfOptions options, ThreadPool& pool) {
  std::vector<ShortestPathTree> trees(sources.size());
  build_trees(g, sources, mask, options, pool, trees);
  return trees;
}

}  // namespace rbpc::spf
