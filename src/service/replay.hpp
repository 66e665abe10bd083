// Offline workload replay against a DetectionService (docs/SERVICE.md).
//
// A workload file is a line-oriented script: `graph` lines register
// generated graphs, `query` lines submit detection queries. Replay pushes
// every query through the service as fast as admission allows (overload
// rejections are counted and retried after a short backoff, so the whole
// workload always completes) and reports per-lane latency and throughput —
// the serving-side view of the paper's "many queries, few graphs" regime.
//
//   # comment                          (blank lines ignored)
//   graph <name> gnp <n> <p> <seed>
//   graph <name> ba <n> <attach> <seed>
//   graph <name> road <n> <keep> <seed>
//   query type=path|tree|scan|motif graph=<name> [key=value ...]
//
// A query line's keys are the QuerySpec field table's (service/query.hpp,
// for_each_field): lane=interactive|batch, k, l (field bits), eps, seed,
// rounds (max-rounds override), early_exit=0|1,
// kernel=auto|scalar|bitsliced, n (ranks), n1, n2, root (tree root),
// certify=0|1, reamplify=0|1, timeout (seconds), and the retry policy's
// attempts, backoff, backoff_mult, max_backoff, jitter. Two more keys are
// replay-only: palette (motif colors, default 3) and repeat (submit r
// copies with seed, seed+1, ...; distinct seeds exercise the cache, not
// the dedup map). Payloads come from derive_payload, never from keys. A
// bad value, an unknown or repeated key, or a negative count fails as
// "workload line N: <key>: ...".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "service/service.hpp"

namespace midas::service {

/// One `graph` line of a workload: the generator recipe, not the graph.
/// Kept symbolic so the same recipe can be replayed in-process or shipped
/// over the wire (src/net) — both sides regenerate the identical graph
/// from (kind, n, params, seed).
struct GraphSpec {
  std::string name;
  std::string kind;       // "gnp" | "ba" | "road"
  std::uint32_t n = 0;
  double fparam = 0.0;    // gnp edge probability / road keep fraction
  std::uint32_t attach = 0;  // ba attachment degree
  std::uint64_t seed = 1;
};

/// Deterministically materialize a GraphSpec (same spec -> same graph,
/// byte for byte). Throws std::runtime_error on an unknown kind.
[[nodiscard]] graph::Graph build_graph(const GraphSpec& spec);

/// A fully parsed workload file: graph recipes in declaration order plus
/// the expanded query list (repeat= already unrolled).
struct Workload {
  std::vector<GraphSpec> graphs;
  std::vector<QuerySpec> queries;
};

/// Fill the payload `q.type` needs from (seed, k, n, palette): a path
/// template over [0, k) for tree, weights in [0, 4] per vertex for scan,
/// and for motif a uniform coloring from [0, palette) plus a multiset of
/// k colors sampled from it (so it is always color-feasible). The same
/// derivation serves workload replays and `midas_cli query`.
void derive_payload(QuerySpec& q, std::uint32_t n, std::uint32_t palette);

/// Parse a workload file without running it. Throws std::runtime_error on
/// unreadable files or malformed lines (message carries the line number).
[[nodiscard]] Workload parse_workload(const std::string& path);

/// Replay-side serving knobs (forwarded into ServiceOptions).
struct ReplayOptions {
  int workers = 0;  // 0 = auto-size from the core budget
  int cores = 0;    // CPU budget; 0 = hardware_concurrency
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 16;
  bool cache_enabled = true;
  /// Resilience knobs (service/resilience.hpp): retry budget/backoff,
  /// hedged re-execution, per-graph circuit breaker.
  RetryPolicy retry{.max_attempts = 3};
  double hedge_multiplier = 0.0;  // 0 = hedging off
  CircuitBreaker::Config breaker{};
  /// Integrity knobs (service/integrity.hpp, `midas_cli serve --certify
  /// --audit-rate --verify-artifacts`): force certify mode on every
  /// replayed query, sample settled answers for background audit, verify
  /// cached-artifact checksums on read.
  bool certify = false;
  double audit_rate = 0.0;
  ArtifactCache::Verify verify = ArtifactCache::Verify::kOff;
  /// Chaos harness: seeded faults injected into the replayed workload
  /// (`midas_cli serve --fault-*`).
  ServiceFaultPlan chaos{};
};

/// Latency/throughput digest of one lane's completed queries.
struct LaneReport {
  std::uint64_t submitted = 0;  // accepted into the lane
  std::uint64_t ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;            // service-side execution errors
  /// Transport-level failures (src/net): the connection died or the wire
  /// protocol was violated before an answer arrived. Always 0 for an
  /// in-process replay; the net load-generator fills it so its report
  /// separates "the engine failed" from "the wire failed".
  std::uint64_t failed_transport = 0;
  double p50_s = 0.0;           // submit -> completion percentiles
  double p99_s = 0.0;
  double mean_s = 0.0;
  /// Error-accounting digest (service/integrity.hpp): mean rounds actually
  /// run per completed query and the lane's worst (largest) achieved
  /// epsilon — the weakest guarantee any answer in the lane carries.
  double mean_rounds = 0.0;
  double worst_achieved_eps = 0.0;
  std::uint64_t certified = 0;   // answers carrying a validated witness
};

struct ReplayReport {
  LaneReport interactive, batch;
  std::uint64_t overload_retries = 0;  // admission rejections (then retried)
  std::uint64_t shed = 0;              // DeadlineInfeasibleError at submit
  std::uint64_t breaker_fastfail = 0;  // CircuitOpenError at submit
  std::uint64_t retried = 0;           // execution retries scheduled
  std::uint64_t hedges = 0;            // hedged re-executions launched
  std::uint64_t worker_restarts = 0;   // dead workers replaced
  std::uint64_t chaos_engine_faults = 0;
  std::uint64_t chaos_build_failures = 0;
  std::uint64_t chaos_artifact_flips = 0;
  /// Integrity counters (service/integrity.hpp).
  std::uint64_t certified = 0;
  std::uint64_t cert_failures = 0;
  std::uint64_t reamplified = 0;
  std::uint64_t audits_scheduled = 0;
  std::uint64_t audit_mismatches = 0;
  std::uint64_t audit_missed_yes = 0;
  std::uint64_t integrity_quarantines = 0;
  /// Core budget + sharded execution (see ServiceStats).
  int workers = 0;
  int cores = 0;
  int ranks_per_worker = 0;
  std::uint64_t pool_reuse = 0;        // SPMD gangs served by a warm pool
  std::uint64_t steals = 0;            // cross-shard ticket steals
  double wall_s = 0.0;                 // first submit -> drain
  double qps = 0.0;                    // completed queries / wall_s
  ArtifactCache::Stats cache;
};

/// Parse `workload_path` and run it through a fresh service.
/// Throws std::runtime_error on unreadable files or malformed lines
/// (message carries the line number).
[[nodiscard]] ReplayReport run_replay(const std::string& workload_path,
                                      const ReplayOptions& opt = {});

/// Human-readable per-lane table (the `midas_cli serve` output).
void print_report(std::ostream& os, const ReplayReport& r);

}  // namespace midas::service
