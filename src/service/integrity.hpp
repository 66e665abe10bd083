// End-to-end answer integrity for the DetectionService (docs/INTEGRITY.md).
//
// PRs 1-6 made the service survive *fail-stop* faults (crashes, timeouts,
// overload). This layer defends the other two rows of the threat model:
//
//  * Silent data corruption — ArtifactIntegrity<T> specializations give the
//    artifact cache a checksum taken at publish and re-verified on read
//    (artifact_cache.hpp). A bit that flips in a cached partition view or
//    randomness table is caught before any engine consumes it; the entry is
//    quarantined and rebuilt single-flight. flip_bit() is the matching
//    chaos seam: it flips only checksummed, value-semantics bytes (vertex
//    ids, randomness words — never sizes or indices), so every injected
//    flip is detectable by construction and corrupts *answers*, not memory
//    safety.
//
//  * Monte Carlo error — the engine's "no" is wrong with probability
//    (4/5)^rounds. achieved_epsilon() turns the rounds actually run into
//    the honest post-hoc bound (0 for a "yes": one-sided error), and
//    certify_result() backs every "yes" with an exactly validated witness
//    peeled out of the live graph (core/witness.hpp): oracle "yes" answers
//    are never wrong and peeling never loses a witness the graph contains,
//    so a failed certification *proves* the original "yes" was corrupt.
//
//  * AuditSampler — background re-execution of a deterministic sample of
//    settled queries. Probe (a) reruns under the alternate kernel
//    (scalar <-> bit-sliced) with the same seed: the kernels are bit-exact
//    by the PR-3 invariant, so any decision mismatch is proof of
//    corruption and quarantines the graph. Probe (b) reruns under a fresh
//    seed: a "yes" against a settled "no" is a provable missed witness —
//    counted (the Monte Carlo ledger), not quarantined (it is expected at
//    rate <= the query's epsilon).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detect_par.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"
#include "service/artifact_cache.hpp"
#include "service/query.hpp"

namespace midas::service {

/// Cached per-(graph, N1) state: the partition and the halo-schedule views
/// every engine consumes. Built once per key, shared across queries.
struct GraphArtifacts {
  partition::Partition part;
  std::vector<partition::PartView> views;
};

/// Checksum every byte of the partition + views; flip only the global-id
/// arrays (vertices/ghosts) — values the engines consume, never index by.
template <>
struct ArtifactIntegrity<GraphArtifacts> {
  static constexpr bool kEnabled = true;
  static std::uint64_t checksum(const GraphArtifacts& a);
  static void flip_bit(GraphArtifacts& a, std::uint64_t pick);
};

/// Checksum every byte of the randomness tables; flip only the v-vector
/// words (parity-check values — any bit pattern is a valid, wrong, value).
template <>
struct ArtifactIntegrity<core::RandTables> {
  static constexpr bool kEnabled = true;
  static std::uint64_t checksum(const core::RandTables& t);
  static void flip_bit(core::RandTables& t, std::uint64_t pick);
};

/// The post-hoc failure bound the rounds actually run achieve: 0 for a
/// "yes" (one-sided error — a yes is never wrong), (4/5)^rounds for a
/// "no". Rounds lost to faulted or aborted attempts must not be counted.
[[nodiscard]] double achieved_epsilon(bool found, int rounds_run) noexcept;

/// The kernel an audited rerun flips to: the other one of the pair, given
/// the kernel the settled answer actually ran on (QueryResult::kernel, as
/// the engine resolved it), so the audit always crosses kernels.
[[nodiscard]] core::Kernel alternate_kernel(core::Kernel ran) noexcept;

/// Certify a "yes" answer in place: peel an actual witness out of `g`
/// against the already-settled decision (core/witness.hpp peel_* — no cold
/// full-graph rerun) and validate it exactly. On success fills
/// qr.witness (+ witness_j/witness_z for scan) and sets qr.certified.
/// Returns false only when no witness exists or validation fails — which,
/// by the peeling invariant, proves the "yes" itself was corrupt. Answers
/// with nothing to certify (a "no"; a scan with no feasible cell) return
/// true with qr.certified left false.
[[nodiscard]] bool certify_result(const graph::Graph& g,
                                  const QuerySpec& spec, QueryResult& qr);

/// Background sampled re-execution of settled queries. One thread; jobs
/// are enqueued by the service at settle time (under its own lock — the
/// sampler's lock nests strictly inside) and processed unlocked, so the
/// mismatch callbacks may re-enter the service. Audit probes run through
/// the service's normal execute path (cached artifacts, clean of chaos).
class AuditSampler {
 public:
  struct Options {
    double rate = 0.0;           // fraction of settled queries audited
    std::uint64_t seed = 0xA0D17ULL;  // sampling + fresh-probe seed salt
  };

  /// Runs one probe spec to a result (the service's execute()).
  using Exec = std::function<QueryResult(const QuerySpec&)>;
  /// Alternate-kernel decision mismatch on `graph` — proof of corruption;
  /// the service quarantines. Invoked with no sampler lock held.
  using OnMismatch = std::function<void(const std::string& graph)>;
  /// Fresh-seed probe found a witness the settled "no" missed on `graph`.
  using OnMissedYes = std::function<void(const std::string& graph)>;

  AuditSampler(Options opt, Exec exec, OnMismatch on_mismatch,
               OnMissedYes on_missed_yes);
  ~AuditSampler();

  AuditSampler(const AuditSampler&) = delete;
  AuditSampler& operator=(const AuditSampler&) = delete;

  /// Deterministic per-fingerprint sampling decision (pure function of
  /// fingerprint and the sampler seed — reruns audit the same queries).
  [[nodiscard]] bool should_audit(std::uint64_t fingerprint) const noexcept;

  /// Queue one settled answer for audit. `result` is the decision copy
  /// (found/found_round/table) taken before the promise was settled.
  void enqueue(const QuerySpec& spec, std::uint64_t fingerprint,
               const QueryResult& result);

  /// Block until every queued audit has been processed.
  void drain();

  struct Counters {
    std::uint64_t scheduled = 0;   // answers queued for audit
    std::uint64_t completed = 0;   // audits fully processed
    std::uint64_t aborted = 0;     // probes that threw (shutdown, chaos)
    std::uint64_t mismatches = 0;  // alternate-kernel decision mismatches
    std::uint64_t missed_yes = 0;  // fresh-seed probe beat a settled "no"
  };
  [[nodiscard]] Counters counters() const noexcept;

 private:
  struct Job {
    QuerySpec spec;
    std::uint64_t fingerprint = 0;
    QueryResult result;
  };

  void loop();
  void run_job(const Job& job);  // no sampler lock held

  const Options opt_;
  const Exec exec_;
  const OnMismatch on_mismatch_;
  const OnMissedYes on_missed_yes_;

  mutable std::mutex m_;
  std::condition_variable cv_;       // worker: job queued / stopping
  std::condition_variable idle_cv_;  // drain(): queue empty and not busy
  std::deque<Job> queue_;
  bool stopping_ = false;
  bool busy_ = false;

  std::atomic<std::uint64_t> scheduled_{0}, completed_{0}, aborted_{0},
      mismatches_{0}, missed_yes_{0};

  std::thread thread_;  // last member: joins before teardown
};

}  // namespace midas::service
