// Failure drill driver: executes randomized fail/recover/patch sequences
// against a control plane and verifies the data-plane invariant after every
// event — packets are delivered if and only if the pair is connected under
// the current failures, and always along a minimum-cost surviving route.
//
// The controller soak harness: the integration fuzz tests run it against
// both RbpcController label plans, and the chaos drill (chaos/chaos_drill)
// drives control planes through the same DrillActions. It checks the data
// plane only; route-for-route agreement between the restoration engines is
// pinned by tests/test_engines.cpp. Intended for simple graphs (no parallel
// links): route costs are reconstructed from the forwarding trace.
#pragma once

#include <functional>
#include <string>
#include <vector>

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

/// The churn a drill generates and how densely it probes the data plane.
struct DrillConfig {
  std::size_t steps = 50;           ///< fail/recover events to execute
  std::size_t probes_per_step = 20; ///< random pair probes after each event
  double recover_bias = 0.4;        ///< chance to recover (when possible)
  double patch_chance = 0.5;        ///< chance to also local-patch a failure
  double router_chance = 0.25;      ///< chance a failure event hits a router
                                    ///< (needs the router hooks)
  std::size_t max_concurrent = 3;   ///< cap on simultaneous failed elements
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

/// Reconstructs the traversed cost from a forwarding trace (min-weight edge
/// between consecutive routers; exact on simple graphs).
graph::Weight trace_cost(const graph::Graph& g,
                         const std::vector<graph::NodeId>& trace,
                         spf::Metric metric);

/// Runs the drill. Throws nothing on invariant violations — they are
/// reported so tests can print them all.
DrillReport run_failure_drill(const graph::Graph& g, spf::Metric metric,
                              const DrillActions& actions,
                              const DrillConfig& config, Rng& rng);

}  // namespace rbpc::core
