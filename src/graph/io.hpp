// Plain-text graph serialization.
//
// Format (comments start with '#'):
//   rbpc-graph 1
//   directed 0
//   nodes <n>
//   edge <u> <v> <weight>
//   ...
//
// Deterministic: edges are written in edge-id order, so save(load(x)) == x.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace rbpc::graph {

void save_graph(std::ostream& os, const Graph& g);
void save_graph_file(const std::string& path, const Graph& g);

/// Throws InputError on malformed input.
Graph load_graph(std::istream& is);

}  // namespace rbpc::graph
