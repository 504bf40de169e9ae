// Graphviz DOT export for documentation and debugging: renders the
// topology with failed elements dashed/red and an optional highlighted
// route (e.g. a restoration path and its decomposition junctions).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace rbpc::graph {

struct DotOptions {
  /// Failed links/routers are drawn dashed red instead of omitted.
  FailureMask failures;
  /// Highlighted route (bold blue); empty = none.
  Path highlight;
  /// Show edge weights as labels.
  bool show_weights = true;
  std::string graph_name = "rbpc";
};

void write_dot(std::ostream& os, const Graph& g, const DotOptions& options = {});

}  // namespace rbpc::graph
