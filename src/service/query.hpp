// Typed queries, results, and errors of the batched detection service
// (docs/SERVICE.md).
//
// A QuerySpec is a self-contained description of one detection run — engine
// (k-path / k-tree / scan), graph (by registered name), field width,
// randomness seed, rank geometry — plus serving metadata (priority lane,
// optional deadline). Everything that affects the *answer* feeds the
// fingerprint; serving metadata deliberately does not, so two queries that
// differ only in lane or deadline deduplicate onto one execution.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "runtime/checksum.hpp"

namespace midas::service {

/// Base of every service-layer failure, so callers can catch the family.
class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Admission rejected: the query's lane queue is full. The query was never
/// enqueued; in-flight work is unaffected. The error carries both lanes'
/// depths and the service's shed policy so load generators can implement
/// client-side backoff without a second stats() round-trip.
class ServiceOverloadError : public ServiceError {
 public:
  ServiceOverloadError(const std::string& lane,
                       std::size_t interactive_depth,
                       std::size_t batch_depth, std::size_t capacity,
                       const std::string& shed_policy)
      : ServiceError("service overloaded: " + lane + " queue full (" +
                     std::to_string(lane == "interactive" ? interactive_depth
                                                          : batch_depth) +
                     "/" + std::to_string(capacity) +
                     " queued; interactive=" +
                     std::to_string(interactive_depth) +
                     " batch=" + std::to_string(batch_depth) +
                     ", shed=" + shed_policy + ")"),
        interactive_depth_(interactive_depth),
        batch_depth_(batch_depth),
        capacity_(capacity),
        shed_policy_(shed_policy) {}

  [[nodiscard]] std::size_t interactive_depth() const noexcept {
    return interactive_depth_;
  }
  [[nodiscard]] std::size_t batch_depth() const noexcept {
    return batch_depth_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// "deadline-aware" when admission sheds infeasible deadlines, "none"
  /// when shedding is disabled.
  [[nodiscard]] const std::string& shed_policy() const noexcept {
    return shed_policy_;
  }

 private:
  std::size_t interactive_depth_;
  std::size_t batch_depth_;
  std::size_t capacity_;
  std::string shed_policy_;
};

/// The query's deadline passed before a worker could start it. The future
/// completes with this error; the worker pool keeps serving other queries.
class DeadlineExceededError : public ServiceError {
 public:
  DeadlineExceededError()
      : ServiceError("query deadline exceeded before execution started") {}
};

/// Admission rejected because the query's deadline is already infeasible:
/// the estimated queue wait (rolling mean execution time x queue depth
/// ahead / workers) exceeds the submitted timeout budget. Shedding at
/// submit keeps doomed work out of the queue entirely (docs/SERVICE.md).
class DeadlineInfeasibleError : public ServiceError {
 public:
  DeadlineInfeasibleError(double eta_s, double budget_s)
      : ServiceError("deadline infeasible at admission: estimated queue "
                     "wait " +
                     std::to_string(eta_s) + " s exceeds the " +
                     std::to_string(budget_s) + " s timeout budget"),
        eta_s_(eta_s),
        budget_s_(budget_s) {}
  [[nodiscard]] double eta_s() const noexcept { return eta_s_; }
  [[nodiscard]] double budget_s() const noexcept { return budget_s_; }

 private:
  double eta_s_;
  double budget_s_;
};

/// Fast-fail: the per-graph circuit breaker is open after consecutive
/// artifact-build failures. The query never touched the worker pool; try
/// again after the cooldown (a half-open probe re-tests the build path).
class CircuitOpenError : public ServiceError {
 public:
  CircuitOpenError(const std::string& graph, double retry_after_s)
      : ServiceError("circuit open for graph '" + graph +
                     "': artifact builds failing repeatedly; retry after " +
                     std::to_string(retry_after_s) + " s"),
        graph_(graph),
        retry_after_s_(retry_after_s) {}
  [[nodiscard]] const std::string& graph_name() const noexcept {
    return graph_;
  }
  [[nodiscard]] double retry_after_s() const noexcept {
    return retry_after_s_;
  }

 private:
  std::string graph_;
  double retry_after_s_;
};

/// submit() referenced a graph name never passed to add_graph().
class UnknownGraphError : public ServiceError {
 public:
  explicit UnknownGraphError(const std::string& name)
      : ServiceError("unknown graph: " + name) {}
};

/// Admission rejected: the QuerySpec itself is malformed (epsilon outside
/// (0, 1), k or max_rounds past its bound, bad rank geometry, ...). Typed
/// so callers can tell a bad request apart from serving failures, and
/// carrying the offending field name for programmatic handling. Raised at
/// submit() — a spec that would only blow up later (e.g. rounds_for_epsilon
/// deriving a nonsense round count inside a worker) never enters a queue.
class QueryValidationError : public ServiceError {
 public:
  QueryValidationError(const std::string& field, const std::string& what)
      : ServiceError("invalid query: " + field + ": " + what),
        field_(field) {}
  /// The QuerySpec member that failed validation ("epsilon",
  /// "max_rounds", "k", "field_bits", "n_ranks", "n1", "n2", "timeout_s",
  /// "retry.max_attempts", "retry.base_backoff_s", "retry.max_backoff_s",
  /// "retry.multiplier", "retry.jitter", "tree_edges", "tree_root",
  /// "weights", "colors", "motif").
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

/// The service is shutting down; queued queries that will never run
/// complete with this error.
class ServiceShutdownError : public ServiceError {
 public:
  ServiceShutdownError()
      : ServiceError("service shut down before the query ran") {}
};

/// Admission caps on the serving fields (DetectionService::validate): every
/// deadline and backoff must fit a steady_clock duration.
inline constexpr double kMaxTimeoutS = 86400.0;  // one day
inline constexpr double kMaxBackoffS = 3600.0;   // base and max backoff
inline constexpr int kMaxAttempts = 100;         // retry.max_attempts

/// Per-query retry budget and backoff shape (service/resilience.hpp).
/// Retries apply only to failures classified retryable (injected faults,
/// rank deaths, transient artifact-build failures) — validation and other
/// caller bugs always surface immediately. Backoff for attempt a is
///   min(max_backoff_s, base_backoff_s * multiplier^(a-1))
/// scaled by a deterministic jitter drawn from (query fingerprint, a), so
/// a given query's retry schedule is identical across reruns.
struct RetryPolicy {
  int max_attempts = 0;        // total execution starts; 0 = inherit the
                               // service default, 1 = never retry
  double base_backoff_s = 1e-3;
  double multiplier = 2.0;
  double max_backoff_s = 0.1;
  double jitter = 0.5;         // +/- fraction of the backoff added

  [[nodiscard]] bool inherits() const noexcept { return max_attempts <= 0; }
};

enum class QueryType { kPath, kTree, kScan, kMotif };
enum class Lane { kInteractive, kBatch };

// One name array per enum, indexed by value: the text names workloads and
// CLI flags use, and the range the wire decoder accepts.
inline constexpr const char* kQueryTypeNames[] = {"path", "tree", "scan",
                                                  "motif"};
inline constexpr const char* kLaneNames[] = {"interactive", "batch"};
inline constexpr const char* kKernelNames[] = {"auto", "scalar",
                                               "bitsliced"};

using EnumNames = std::span<const char* const>;
constexpr EnumNames enum_names(QueryType) { return kQueryTypeNames; }
constexpr EnumNames enum_names(Lane) { return kLaneNames; }
constexpr EnumNames enum_names(core::Kernel) { return kKernelNames; }

template <typename E>
concept NamedEnum = requires(E e) { enum_names(e); };

template <NamedEnum E>
[[nodiscard]] const char* to_string(E e) noexcept {
  return enum_names(e)[static_cast<std::size_t>(e)];
}

/// The enumerator called `name`, or nullopt when no enumerator is.
template <NamedEnum E>
[[nodiscard]] std::optional<E> enum_from_name(std::string_view name) {
  const auto names = enum_names(E{});
  for (std::size_t i = 0; i < names.size(); ++i)
    if (name == names[i]) return static_cast<E>(i);
  return std::nullopt;
}

/// The names of E joined by '|', for error messages ("path|tree|...").
template <NamedEnum E>
[[nodiscard]] std::string enum_choices() {
  std::string out;
  for (const char* n : enum_names(E{})) {
    if (!out.empty()) out += '|';
    out += n;
  }
  return out;
}

struct QuerySpec {
  QueryType type = QueryType::kPath;
  Lane lane = Lane::kBatch;
  std::string graph;  // name registered via DetectionService::add_graph

  // Detection parameters (core::MidasOptions analogs).
  int k = 4;
  int field_bits = 8;  // l: 8 runs GF(2^8), any other l in [2,16] GFSmall(l)
  double epsilon = 0.05;
  std::uint64_t seed = 1;
  int max_rounds = 0;  // > 0 overrides the epsilon-derived round count
  bool early_exit = true;
  core::Kernel kernel = core::Kernel::kAuto;

  // Rank geometry of the underlying SPMD run.
  int n_ranks = 2;
  int n1 = 2;
  std::uint32_t n2 = 16;

  // kTree only: the template as an edge list over vertices [0, k) plus the
  // decomposition root.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tree_edges;
  std::uint32_t tree_root = 0;

  // kScan only: one non-negative weight per graph vertex.
  std::vector<std::uint32_t> weights;

  // kMotif only: one color per graph vertex, and the queried color
  // multiset (its size is the subgraph size; k must equal motif.size()).
  std::vector<std::uint32_t> colors;
  std::vector<std::uint32_t> motif;

  // -- answer integrity (service/integrity.hpp, docs/INTEGRITY.md) --------
  /// Certified positives: on a "yes", peel an actual witness out of the
  /// graph and validate it exactly before answering. The witness rides in
  /// QueryResult::witness; certification failure (possible only when the
  /// "yes" itself was corrupt) is flagged and counted, never silent.
  bool certify = false;
  /// Adaptive re-amplification: when a "no" answer ran fewer rounds than
  /// its epsilon target needs (max_rounds capped the run), top up with the
  /// missing rounds under a derived seed. Can flip "no" to "yes", so it is
  /// part of the answer fingerprint.
  bool reamplify = false;

  // Serving metadata (excluded from the fingerprint). timeout_s > 0 arms a
  // deadline measured from submit(): a query still queued when it expires
  // completes with DeadlineExceededError instead of running, and admission
  // may shed it up front with DeadlineInfeasibleError when the estimated
  // queue wait already exceeds the budget.
  double timeout_s = 0.0;
  // Per-query retry policy; max_attempts = 0 inherits the service default
  // (ServiceOptions::retry). Serving metadata: excluded from the
  // fingerprint, so deduped queries share one retried execution.
  RetryPolicy retry{};

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds
                          : core::rounds_for_epsilon(epsilon);
  }
};

/// Whether a field feeds the answer or only how the query is served.
enum class FieldKind { kAnswer, kServing };

/// The one list of QuerySpec fields, in wire order: calls
/// fn(key, member, kind) for each. `key` is the field's workload key
/// (docs/SERVICE.md). The fingerprint hashes the kAnswer fields, the wire
/// codec (net/protocol.cpp) sends all of them, and the workload parser
/// (service/replay.cpp) sets the scalar ones by key — so a new QuerySpec
/// member is one line here. Serving fields are exactly those two queries
/// may differ in and still deduplicate onto one execution.
template <typename Q, typename Fn>
  requires std::same_as<std::remove_const_t<Q>, QuerySpec>
void for_each_field(Q& q, Fn&& fn) {
  constexpr FieldKind A = FieldKind::kAnswer, S = FieldKind::kServing;
  fn("type", q.type, A);
  fn("lane", q.lane, S);
  fn("graph", q.graph, A);
  fn("k", q.k, A);
  fn("l", q.field_bits, A);
  fn("eps", q.epsilon, A);
  fn("seed", q.seed, A);
  fn("rounds", q.max_rounds, A);
  fn("early_exit", q.early_exit, A);
  fn("kernel", q.kernel, A);
  fn("n", q.n_ranks, A);
  fn("n1", q.n1, A);
  fn("n2", q.n2, A);
  fn("tree_edges", q.tree_edges, A);
  fn("root", q.tree_root, A);
  fn("weights", q.weights, A);
  fn("certify", q.certify, A);
  fn("reamplify", q.reamplify, A);
  fn("timeout", q.timeout_s, S);
  fn("attempts", q.retry.max_attempts, S);
  fn("backoff", q.retry.base_backoff_s, S);
  fn("backoff_mult", q.retry.multiplier, S);
  fn("max_backoff", q.retry.max_backoff_s, S);
  fn("jitter", q.retry.jitter, S);
  fn("colors", q.colors, A);
  fn("motif", q.motif, A);
}

/// Identity of a query's *answer*: every kAnswer field, and nothing that
/// only affects serving. Identical fingerprints on the same service are
/// the dedup condition — and also the artifact-sharing condition the
/// cache keys build on. Strings and vectors are length-prefixed, so
/// adjacent variable-length fields cannot trade elements and collide.
[[nodiscard]] inline std::uint64_t query_fingerprint(const QuerySpec& q) {
  runtime::Fnv1aStream s;
  for_each_field(q, [&s](const char*, const auto& v, FieldKind kind) {
    if (kind == FieldKind::kServing) return;
    if constexpr (requires { v.data(); })
      s.update(std::as_bytes(std::span(v.data(), v.size())));
    else
      s.update_value(v);
  });
  return s.digest();
}

/// One query's answer plus serving telemetry. Path/tree queries fill
/// `found`/`found_round`; scan queries fill `table`.
struct QueryResult {
  bool found = false;
  int rounds_run = 0;
  int found_round = -1;
  core::FeasibilityTable table;  // scan only; empty otherwise

  double vtime = 0.0;        // modeled parallel makespan of the engine run
  // The kernel the engine resolved the spec's request to; the audit reruns
  // on the other one. In-process only: the wire codec does not carry it.
  core::Kernel kernel = core::Kernel::kScalar;
  double engine_wall_s = 0.0;  // host wall-clock inside the engine
  double queue_s = 0.0;        // submit -> execution start
  double total_s = 0.0;        // submit -> completion

  // Resilience telemetry (service/resilience.hpp): how many execution
  // starts (first attempt + retries + hedges) this answer consumed, and
  // whether a hedged re-execution beat the original straggler to it.
  int attempts = 1;
  bool hedge_won = false;

  // -- answer integrity (service/integrity.hpp) ---------------------------
  /// The failure bound this query asked for (epsilon, or implied by an
  /// explicit max_rounds) and the bound the rounds actually run achieve:
  /// 0 for a "yes" (one-sided error — a yes is never wrong), (4/5)^rounds
  /// for a "no". Only rounds of the successful attempt count; rounds lost
  /// to faults or aborted attempts never inflate the claim.
  double target_epsilon = 0.0;
  double achieved_epsilon = 0.0;
  /// Extra rounds a reamplify top-up ran (0 when none was needed).
  int reamp_rounds = 0;
  /// certify-mode outcome: the exactly-validated witness. For path/tree, a
  /// vertex sequence / template->graph map; for scan, the vertex set of
  /// the certified (witness_j, witness_z) cell. certified == false with
  /// found == true means certification FAILED — the "yes" could not be
  /// backed by a real subgraph (counted + quarantined service-side).
  bool certified = false;
  std::vector<graph::VertexId> witness;
  int witness_j = 0;
  std::uint32_t witness_z = 0;
};

}  // namespace midas::service
