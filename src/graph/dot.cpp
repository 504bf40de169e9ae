#include "graph/dot.hpp"

#include <ostream>
#include <string>

namespace rbpc::graph {

void write_dot(std::ostream& os, const Graph& g, const DotOptions& options) {
  const char* connector = g.directed() ? " -> " : " -- ";
  os << (g.directed() ? "digraph " : "graph ") << options.graph_name << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << " [label=\"" << v << '"';
    if (options.failures.node_failed(v)) {
      os << " color=red style=dashed";
    } else if (!options.highlight.empty() && options.highlight.visits_node(v)) {
      os << " color=blue penwidth=2";
    }
    os << "];\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    os << "  n" << ed.u << connector << 'n' << ed.v << " [";
    bool first = true;
    auto attr = [&](const std::string& a) {
      os << (first ? "" : " ") << a;
      first = false;
    };
    if (options.show_weights) {
      attr("label=\"" + std::to_string(ed.weight) + "\"");
    }
    if (!options.failures.edge_alive(g, e)) {
      attr("color=red style=dashed");
    } else if (options.highlight.uses_edge(e)) {
      attr("color=blue penwidth=2");
    }
    os << "];\n";
  }
  os << "}\n";
}

}  // namespace rbpc::graph
