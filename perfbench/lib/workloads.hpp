// The three workloads. Each builds its inputs from the seed, sets up,
// measures for the requested seconds, checks its answers, and reports
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) into one ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Outcome {
  Ledger ledger;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // printed beside the metrics
  Spans spans;                     // the traced run's layer-call spans
};

[[nodiscard]] Outcome run_engine_large(const RunArgs& args);
/// wire-small (closed loop) and wire-mix (open loop).
[[nodiscard]] Outcome run_wire(const RunArgs& args);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;
/// The wire workloads repeat it further, up to 100 times in all, until
/// the repeats have taken this long.
inline constexpr double kSetupMinSeconds = 0.5;

/// A window runs on past `--seconds`, until stretches of it with little
/// host steal (kQuietStealShare) make up half of `--seconds`, for at most
/// this many times `--seconds` in all (engine-large, wire-small).
inline constexpr double kMaxWindowFactor = 1.5;

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// The end-to-end set, reported by the untraced run of every workload.
struct EndToEnd {
  double setup_s = 0.0;
  double qps = 0.0;  // answers / (window start -> last answer), in 1/s
  double rss_mb = 0.0;  // peak resident set of the serving process
  std::vector<double> latency_ms;
};
void report_end_to_end(Outcome& out, const EndToEnd& e);

/// The per-layer set, reported by the traced run of every workload. A
/// layer a workload bypasses reports 0 (engine-large never touches the
/// service or the wire; only engine-large runs the kernel-choice ledger).
enum TypeIdx { kPathIdx, kTreeIdx, kScanIdx, kMotifIdx, kNumTypes };
struct PerLayer {
  double graph_build_ms = 0, partition_build_ms = 0, boundary_frac = 0;
  double gf_seq_ns_per_iter_vertex = 0, gf_ops_per_query = 0,
         gf_ns_per_op = 0;
  double core_ms[kNumTypes] = {}, core_ns_per_iter_vertex = 0,
         core_vtime_ms = 0;
  double scalar_over_auto[kNumTypes] = {},
         bitsliced_over_auto[kNumTypes] = {};
  double halo_bytes_per_query = 0, halo_messages_per_query = 0,
         phase_self_ms = 0, halo_ms = 0, collective_wait_ms = 0,
         pool_reuse_frac = 0;
  double queue_ms_p50 = 0, queue_ms_tail = 0, exec_ms_p50 = 0,
         overhead_ms_p50 = 0, busy_frac = 0, workers = 0,
         ranks_per_worker = 0;
  double cache_hit_ratio = 0, cache_builds_per_query = 0,
         cache_evictions = 0, deduped_frac = 0, steals_per_query = 0,
         admission_retries_per_query = 0, certify_ms = 0;
  double wire_ms_p50 = 0, rx_bytes_per_query = 0, tx_bytes_per_query = 0,
         frames_per_query = 0, encode_us = 0, decode_us = 0;
  double late_ms_max = 0, trace_overhead_frac = 0;
  double interactive_p50_ms = 0, interactive_tail_ms = 0, slo_frac = 0;
};
void report_per_layer(Outcome& out, const PerLayer& p);

/// Runtime-tracer totals over one traced window: arm with trace_begin(),
/// read with trace_end() once every traced call has returned.
struct TraceTotals {
  std::uint64_t gf_ops = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t halo_messages = 0;
  SelfTimes self;
};
void trace_begin();
[[nodiscard]] TraceTotals trace_end();
/// Fills the gf.* and runtime.* trace-derived fields; `rank_queries` is
/// the sum of n_ranks over the queries the window ran.
void fill_from_trace(PerLayer& p, const TraceTotals& t, double queries,
                     double rank_queries);

}  // namespace perfbench
