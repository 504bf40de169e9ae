// Umbrella header: the full public API of the RBPC library.
//
// Layering (each header is also usable on its own):
//
//   util   — RNG, statistics, histograms, tables, CLI, errors, and the
//            fixed-size thread pool backing the parallel engines
//   graph  — graphs, paths, failure masks, analysis, serialization
//   spf    — shortest-path machinery (Dijkstra/BFS, padding, oracle,
//            bypass, disjoint pairs, k-shortest), the allocation-free SPF
//            workspace kernel (workspace), incremental SPT repair
//            (incremental), and the thread-safe per-source tree cache
//            (tree_cache)
//   topo   — topology generators and the paper's gadget constructions
//   lsdb   — link-state database, discrete events, failure floods
//   mpls   — label switching: LSRs, ILM/FEC, LSPs, merged trees, LDP model
//   core   — restoration by path concatenation: base sets, decomposition,
//            source/local/hybrid schemes, controllers, experiments,
//            baselines, failure drills, and the batch layer (core/batch):
//            parallel restoration of every LSP affected by a failure
//            event, differentially guaranteed identical to the serial loop
//
// Quick start: see examples/quickstart.cpp and README.md.
#pragma once

#include "util/cli.hpp"         // IWYU pragma: export
#include "util/error.hpp"       // IWYU pragma: export
#include "util/histogram.hpp"   // IWYU pragma: export
#include "util/rng.hpp"         // IWYU pragma: export
#include "util/stats.hpp"        // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
#include "util/thread_pool.hpp"  // IWYU pragma: export

#include "graph/analysis.hpp"   // IWYU pragma: export
#include "graph/dot.hpp"        // IWYU pragma: export
#include "graph/failure.hpp"    // IWYU pragma: export
#include "graph/graph.hpp"      // IWYU pragma: export
#include "graph/io.hpp"         // IWYU pragma: export
#include "graph/path.hpp"       // IWYU pragma: export
#include "graph/types.hpp"      // IWYU pragma: export

#include "spf/bypass.hpp"         // IWYU pragma: export
#include "spf/counting.hpp"       // IWYU pragma: export
#include "spf/disjoint.hpp"       // IWYU pragma: export
#include "spf/incremental.hpp"    // IWYU pragma: export
#include "spf/metric.hpp"         // IWYU pragma: export
#include "spf/oracle.hpp"         // IWYU pragma: export
#include "spf/spf.hpp"            // IWYU pragma: export
#include "spf/tree.hpp"           // IWYU pragma: export
#include "spf/tree_cache.hpp"     // IWYU pragma: export
#include "spf/workspace.hpp"      // IWYU pragma: export
#include "spf/yen.hpp"            // IWYU pragma: export

#include "topo/gadgets.hpp"     // IWYU pragma: export
#include "topo/generators.hpp"  // IWYU pragma: export

#include "lsdb/event_queue.hpp"  // IWYU pragma: export
#include "lsdb/lsdb.hpp"         // IWYU pragma: export

#include "mpls/label.hpp"    // IWYU pragma: export
#include "mpls/ldp.hpp"      // IWYU pragma: export
#include "mpls/lsr.hpp"      // IWYU pragma: export
#include "mpls/network.hpp"  // IWYU pragma: export
#include "mpls/packet.hpp"   // IWYU pragma: export

#include "core/base_set.hpp"           // IWYU pragma: export
#include "core/baselines.hpp"          // IWYU pragma: export
#include "core/batch.hpp"              // IWYU pragma: export
#include "core/controller.hpp"         // IWYU pragma: export
#include "core/decompose.hpp"          // IWYU pragma: export
#include "core/drill.hpp"              // IWYU pragma: export
#include "core/experiment.hpp"         // IWYU pragma: export
#include "core/fec_update.hpp"         // IWYU pragma: export
#include "core/hybrid.hpp"             // IWYU pragma: export
#include "core/restoration.hpp"        // IWYU pragma: export
#include "core/scenario.hpp"           // IWYU pragma: export
