// Seeded generation of every workload's inputs. The same seed gives the
// same graphs, query specs and arrival schedule; the program under test
// only ever sees the generated specs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "service/query.hpp"
#include "service/replay.hpp"

namespace perfbench {

// -- engine-large ------------------------------------------------------------
// Direct distributed core calls, one at a time, cycling path/tree/scan/motif
// on one G(n, m = 4n) graph: the paper's own regime.
inline constexpr std::uint32_t kLargeN = 4000;
inline constexpr const char* kLargeGraph = "large";

[[nodiscard]] midas::graph::Graph engine_large_graph(std::uint64_t seed);

/// The i-th query of the engine-large cycle; its type is i % 4.
[[nodiscard]] midas::service::QuerySpec engine_large_query(std::uint64_t seed,
                                                           std::uint64_t i);

// -- wire-small --------------------------------------------------------------
// Tiny k=3 path/tree queries over two 300-vertex graphs, so serving-layer
// costs dominate each query.
[[nodiscard]] std::vector<midas::service::GraphSpec> wire_small_graphs(
    std::uint64_t seed);
[[nodiscard]] midas::service::QuerySpec wire_small_query(std::uint64_t seed,
                                                         std::uint64_t i);

// -- wire-mix ----------------------------------------------------------------
// Open-loop Poisson arrivals of a lane and type mix over three 3000-vertex
// graphs; one arrival in ten exactly repeats the one before it.
inline constexpr double kMixRate = 12.0;  // arrivals per second

[[nodiscard]] std::vector<midas::service::GraphSpec> wire_mix_graphs(
    std::uint64_t seed);

struct Arrival {
  double due_s = 0.0;  // offset from the start of the timed window
  midas::service::QuerySpec spec;
  bool repeat = false;  // an exact copy of an earlier arrival's spec
};
/// kMixRate x seconds arrivals, due in [0, seconds).
[[nodiscard]] std::vector<Arrival> wire_mix_schedule(std::uint64_t seed,
                                                     double seconds);

/// One warm-up query per (graph, type, n1) of a workload's mix: the
/// distinct artifact keys its timed queries will touch.
[[nodiscard]] std::vector<midas::service::QuerySpec> warmup_queries(
    const std::vector<midas::service::QuerySpec>& sample);

/// Lane latency limits for the SLO share.
inline constexpr double kInteractiveLimitMs = 200.0;
inline constexpr double kBatchLimitMs = 500.0;

}  // namespace perfbench
