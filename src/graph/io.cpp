#include "graph/io.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace rbpc::graph {

void save_graph(std::ostream& os, const Graph& g) {
  os << "rbpc-graph 1\n";
  os << "directed " << (g.directed() ? 1 : 0) << '\n';
  os << "nodes " << g.num_nodes() << '\n';
  for (const Edge& e : g.edges()) {
    os << "edge " << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
}

void save_graph_file(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  if (!os) throw InputError("cannot open for writing: " + path);
  save_graph(os, g);
  if (!os) throw InputError("write failed: " + path);
}

Graph load_graph(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto next_line = [&](std::string& out) {
    while (std::getline(is, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      // Skip blank (or comment-only) lines.
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      out = line;
      return true;
    }
    return false;
  };
  auto parse_error = [&](const std::string& what) -> InputError {
    return InputError("graph load error at line " + std::to_string(line_no) +
                      ": " + what);
  };

  std::string current;
  if (!next_line(current)) throw parse_error("empty input");
  {
    std::istringstream ls(current);
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    if (magic != "rbpc-graph" || version != 1) {
      throw parse_error("expected header 'rbpc-graph 1'");
    }
  }

  bool directed = false;
  std::size_t num_nodes = 0;
  bool have_nodes = false;
  std::optional<GraphBuilder> builder;

  while (next_line(current)) {
    std::istringstream ls(current);
    std::string keyword;
    ls >> keyword;
    if (keyword == "directed") {
      int flag = -1;
      ls >> flag;
      if (flag != 0 && flag != 1) throw parse_error("directed expects 0 or 1");
      directed = flag == 1;
    } else if (keyword == "nodes") {
      if (!(ls >> num_nodes)) throw parse_error("nodes expects a count");
      have_nodes = true;
      builder.emplace(num_nodes, directed);
    } else if (keyword == "edge") {
      if (!have_nodes) throw parse_error("edge before nodes declaration");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      Weight w = 0;
      if (!(ls >> u >> v >> w)) throw parse_error("edge expects 'u v weight'");
      if (u >= num_nodes || v >= num_nodes) {
        throw parse_error("edge endpoint out of range");
      }
      try {
        builder->add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
      } catch (const PreconditionError& err) {
        throw parse_error(err.what());
      }
    } else {
      throw parse_error("unknown keyword '" + keyword + "'");
    }
  }
  if (!have_nodes) throw InputError("graph load error: missing nodes line");
  return builder->build();
}

}  // namespace rbpc::graph
