// Failure drill driver: executes randomized fail/recover/patch sequences
// against a control plane and verifies the data-plane invariant after every
// event — packets are delivered if and only if the pair is connected under
// the current failures, and always along a minimum-cost surviving route.
//
// Used by the integration fuzz tests (against both RbpcController label plans)
// and available to downstream users as a soak-testing harness. Intended for
// simple graphs (no parallel links): route costs are reconstructed from the
// forwarding trace.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "mpls/packet.hpp"
#include "spf/metric.hpp"
#include "util/rng.hpp"

namespace rbpc::core {

/// Adapter over a control plane (RbpcController under either label plan, or
/// anything else with the same duties).
struct DrillActions {
  std::function<void(graph::EdgeId)> fail_link;
  std::function<void(graph::EdgeId)> recover_link;
  /// Optional router-failure hooks; router events are only generated when
  /// both are set.
  std::function<void(graph::NodeId)> fail_router;
  std::function<void(graph::NodeId)> recover_router;
  /// Optional: invoked on some link failures to exercise local patching
  /// alongside the source reroute. May be null.
  std::function<void(graph::EdgeId)> local_patch;
  std::function<mpls::ForwardResult(graph::NodeId, graph::NodeId)> send;
  std::function<const graph::FailureMask&()> failures;
  /// Optional, chaos drills only: forces the *data plane's* failure state to
  /// the given ground truth, without telling the control plane. Controllers
  /// overwrite the network mask with their own (possibly stale) view on
  /// every event they process, so a chaos driver re-asserts the truth after
  /// each control-plane call. Null for classic drills, where view == truth.
  std::function<void(const graph::FailureMask&)> set_data_failures;
};

struct DrillConfig {
  std::size_t steps = 50;           ///< fail/recover events to execute
  std::size_t probes_per_step = 20; ///< random pair probes after each event
  double recover_bias = 0.4;        ///< chance to recover (when possible)
  double patch_chance = 0.5;        ///< chance to also local-patch a failure
  double router_chance = 0.25;      ///< chance a failure event hits a router
                                    ///< (needs the router hooks)
  std::size_t max_concurrent = 3;   ///< cap on simultaneous failed elements

  /// Optional parallel-engine cross-check: when `batch_base` is set (a base
  /// set over the unfailed graph), the drill additionally restores
  /// `batch_pairs` random alive pairs after every event, both through the
  /// serial source_rbpc_restore loop and through a BatchRestorer on
  /// `batch_threads` threads, and reports any divergence as a violation —
  /// soak-testing the engine's determinism guarantee under realistic
  /// fail/recover churn. Off by default.
  BasePathSet* batch_base = nullptr;
  std::size_t batch_threads = 2;    ///< 0 = hardware concurrency
  std::size_t batch_pairs = 8;      ///< pairs cross-checked per event
};

struct DrillReport {
  std::size_t events = 0;
  std::size_t probes = 0;
  std::size_t delivered = 0;
  std::size_t expected_unreachable = 0;
  /// Human-readable descriptions of invariant violations (empty = pass).
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Runs the drill. Throws nothing on invariant violations — they are
/// reported so tests can print them all.
DrillReport run_failure_drill(const graph::Graph& g, spf::Metric metric,
                              const DrillActions& actions,
                              const DrillConfig& config, Rng& rng);

}  // namespace rbpc::core
