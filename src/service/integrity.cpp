#include "service/integrity.hpp"

#include <cmath>
#include <utility>

#include "core/witness.hpp"
#include "runtime/checksum.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "util/log.hpp"

namespace midas::service {

namespace {

/// Uniform double in [0, 1) from a mixed 64-bit word.
double to_unit(std::uint64_t u) noexcept {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

/// Flip bit `pick % total_bits` across the concatenation of `spans`
/// (mutable vectors of trivially copyable words). The enumeration order is
/// fixed, and every span is also checksummed, so the flip is always
/// detectable.
template <typename T>
void flip_in_spans(std::vector<std::vector<T>*> spans, std::uint64_t pick) {
  std::uint64_t total_bits = 0;
  for (const auto* s : spans)
    total_bits += static_cast<std::uint64_t>(s->size()) * sizeof(T) * 8;
  if (total_bits == 0) return;
  std::uint64_t target = pick % total_bits;
  for (auto* s : spans) {
    const std::uint64_t bits =
        static_cast<std::uint64_t>(s->size()) * sizeof(T) * 8;
    if (target >= bits) {
      target -= bits;
      continue;
    }
    auto bytes = std::as_writable_bytes(std::span<T>(s->data(), s->size()));
    bytes[target / 8] ^= static_cast<std::byte>(1u << (target % 8));
    return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactIntegrity specializations
// ---------------------------------------------------------------------------

std::uint64_t ArtifactIntegrity<GraphArtifacts>::checksum(
    const GraphArtifacts& a) {
  runtime::Fnv1aStream s;
  s.update_value(a.part.parts);
  s.update_vec(a.part.owner);
  s.update_value(static_cast<std::uint64_t>(a.views.size()));
  for (const partition::PartView& v : a.views) {
    s.update_value(v.part);
    s.update_vec(v.vertices);
    s.update_vec(v.ghosts);
    s.update_vec(v.adj_offsets);
    s.update_vec(v.adj);
    s.update_value(static_cast<std::uint64_t>(v.send_to.size()));
    for (const auto& x : v.send_to) s.update_vec(x);
    s.update_value(static_cast<std::uint64_t>(v.recv_from.size()));
    for (const auto& x : v.recv_from) s.update_vec(x);
    s.update_vec(v.boundary);
  }
  return s.digest();
}

void ArtifactIntegrity<GraphArtifacts>::flip_bit(GraphArtifacts& a,
                                                 std::uint64_t pick) {
  // Only the global-id arrays: their words are consumed as *values* (they
  // feed the per-vertex randomness), so a flipped bit silently corrupts
  // answers without ever indexing out of bounds.
  std::vector<std::vector<graph::VertexId>*> spans;
  for (partition::PartView& v : a.views) {
    spans.push_back(&v.vertices);
    spans.push_back(&v.ghosts);
  }
  flip_in_spans(std::move(spans), pick);
}

std::uint64_t ArtifactIntegrity<core::RandTables>::checksum(
    const core::RandTables& t) {
  runtime::Fnv1aStream s;
  s.update_value(t.seed);
  s.update_value(t.k);
  s.update_value(t.rounds);
  s.update_value(t.parts);
  s.update_value(static_cast<std::uint64_t>(t.v.size()));
  for (const auto& x : t.v) s.update_vec(x);
  s.update_value(static_cast<std::uint64_t>(t.coeff.size()));
  for (const auto& x : t.coeff) s.update_vec(x);
  return s.digest();
}

void ArtifactIntegrity<core::RandTables>::flip_bit(core::RandTables& t,
                                                   std::uint64_t pick) {
  // Only the v-vector words: any bit pattern is a valid parity-check value
  // (the coeff words are field elements whose log-table lookups assume
  // in-range values, so flipping them could crash instead of corrupting).
  std::vector<std::vector<std::uint32_t>*> spans;
  for (auto& x : t.v) spans.push_back(&x);
  flip_in_spans(std::move(spans), pick);
}

// ---------------------------------------------------------------------------
// Error accounting
// ---------------------------------------------------------------------------

double achieved_epsilon(bool found, int rounds_run) noexcept {
  if (found) return 0.0;  // one-sided: a "yes" is never wrong
  return std::pow(0.8, rounds_run);
}

core::Kernel alternate_kernel(core::Kernel ran) noexcept {
  return ran == core::Kernel::kScalar ? core::Kernel::kBitsliced
                                      : core::Kernel::kScalar;
}

// ---------------------------------------------------------------------------
// Certified positives
// ---------------------------------------------------------------------------

bool certify_result(const graph::Graph& g, const QuerySpec& spec,
                    QueryResult& qr) {
  core::WitnessOptions wopt;
  wopt.seed = spec.seed;
  wopt.field_bits = spec.field_bits;
  wopt.kernel = spec.kernel;
  MIDAS_TRACE_SPAN("service.certify", {"type", static_cast<int>(spec.type)});

  switch (spec.type) {
    case QueryType::kPath: {
      if (!qr.found) return true;
      auto w = core::peel_kpath(g, spec.k, wopt);
      if (!w || !core::validate_kpath(g, *w, spec.k)) return false;
      qr.witness = std::move(*w);
      qr.certified = true;
      return true;
    }
    case QueryType::kTree: {
      if (!qr.found) return true;
      graph::GraphBuilder tb(static_cast<graph::VertexId>(spec.k));
      for (const auto& [a, b] : spec.tree_edges) tb.add_edge(a, b);
      const graph::Graph tmpl = tb.build();
      auto w = core::peel_tree_embedding(g, tmpl, wopt);
      if (!w || !core::validate_tree_embedding(g, tmpl, *w)) return false;
      qr.witness = std::move(*w);
      qr.certified = true;
      return true;
    }
    case QueryType::kMotif: {
      if (!qr.found) return true;
      auto w = core::peel_motif(g, spec.colors, spec.motif, wopt);
      if (!w || !core::validate_motif(g, spec.colors, spec.motif, *w))
        return false;
      qr.witness = std::move(*w);
      qr.certified = true;
      return true;
    }
    case QueryType::kScan: {
      // Certify the strongest claim in the table: the largest feasible j,
      // then the largest feasible weight at that j.
      int bj = 0;
      std::uint32_t bz = 0;
      bool any = false;
      for (int j = qr.table.k; j >= 1 && !any; --j)
        for (std::uint32_t z = qr.table.max_weight + 1; z-- > 0;)
          if (qr.table.at(j, z)) {
            bj = j;
            bz = z;
            any = true;
            break;
          }
      if (!any) return true;  // all-"no" table: nothing to certify
      auto w = core::peel_connected_subgraph(g, spec.weights, bj, bz, wopt);
      if (!w ||
          !core::validate_connected_subgraph(g, spec.weights, bj, bz, *w))
        return false;
      qr.witness = std::move(*w);
      qr.witness_j = bj;
      qr.witness_z = bz;
      qr.certified = true;
      return true;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// AuditSampler
// ---------------------------------------------------------------------------

AuditSampler::AuditSampler(Options opt, Exec exec, OnMismatch on_mismatch,
                           OnMissedYes on_missed_yes)
    : opt_(opt),
      exec_(std::move(exec)),
      on_mismatch_(std::move(on_mismatch)),
      on_missed_yes_(std::move(on_missed_yes)),
      thread_([this] { loop(); }) {}

AuditSampler::~AuditSampler() {
  {
    std::lock_guard lock(m_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool AuditSampler::should_audit(std::uint64_t fingerprint) const noexcept {
  if (opt_.rate <= 0.0) return false;
  if (opt_.rate >= 1.0) return true;
  const std::uint64_t u = runtime::fault_mix(
      fingerprint ^ runtime::fault_mix(opt_.seed ^ 0xA0D17ULL));
  return to_unit(u) < opt_.rate;
}

void AuditSampler::enqueue(const QuerySpec& spec, std::uint64_t fingerprint,
                           const QueryResult& result) {
  {
    std::lock_guard lock(m_);
    if (stopping_) return;
    queue_.push_back(Job{spec, fingerprint, result});
  }
  scheduled_.fetch_add(1, std::memory_order_relaxed);
  MIDAS_TRACE_COUNT("service.integrity_audits_scheduled", 1);
  cv_.notify_one();
}

void AuditSampler::drain() {
  std::unique_lock lock(m_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

AuditSampler::Counters AuditSampler::counters() const noexcept {
  return {scheduled_.load(std::memory_order_relaxed),
          completed_.load(std::memory_order_relaxed),
          aborted_.load(std::memory_order_relaxed),
          mismatches_.load(std::memory_order_relaxed),
          missed_yes_.load(std::memory_order_relaxed)};
}

void AuditSampler::loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(m_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    run_job(job);
    {
      std::lock_guard lock(m_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void AuditSampler::run_job(const Job& job) {
  MIDAS_TRACE_SPAN("service.audit",
                   {"type", static_cast<int>(job.spec.type)});
  try {
    // Probe (a): same seed, alternate kernel. The kernels are bit-exact,
    // so the decision (and for scan the whole table) must match; any
    // difference is proof one side consumed corrupted state.
    QuerySpec alt = job.spec;
    alt.kernel = alternate_kernel(job.result.kernel);
    alt.certify = false;
    alt.timeout_s = 0.0;
    const QueryResult a = exec_(alt);
    bool mismatch;
    if (job.spec.type == QueryType::kScan)
      mismatch = a.table.feasible != job.result.table.feasible;
    else
      mismatch = a.found != job.result.found ||
                 a.found_round != job.result.found_round;
    if (mismatch) {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
      MIDAS_TRACE_COUNT("service.integrity_audit_mismatches", 1);
      log_warn("integrity audit: alternate-kernel decision mismatch on "
               "graph '", job.spec.graph, "' — quarantining");
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (on_mismatch_) on_mismatch_(job.spec.graph);
      return;
    }

    // Probe (b): fresh seed, same kernel. A "yes" against the settled
    // "no" is a provably missed witness — the Monte Carlo ledger, not a
    // corruption (expected at rate <= the query's epsilon).
    QuerySpec fresh = job.spec;
    fresh.seed = runtime::fault_mix(job.spec.seed ^
                                    runtime::fault_mix(opt_.seed) ^
                                    0xF4E5ULL);
    fresh.certify = false;
    fresh.reamplify = false;
    fresh.timeout_s = 0.0;
    const QueryResult b = exec_(fresh);
    bool missed = false;
    if (job.spec.type == QueryType::kScan) {
      for (int j = 1; j <= b.table.k && !missed; ++j)
        for (std::uint32_t z = 0; z <= b.table.max_weight; ++z)
          if (b.table.at(j, z) && !job.result.table.at(j, z)) {
            missed = true;
            break;
          }
    } else {
      missed = b.found && !job.result.found;
    }
    if (missed) {
      missed_yes_.fetch_add(1, std::memory_order_relaxed);
      MIDAS_TRACE_COUNT("service.integrity_missed_yes", 1);
      if (on_missed_yes_) on_missed_yes_(job.spec.graph);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // A probe that cannot run (service shutting down, chaos fault) aborts
    // this audit; it never blocks serving.
    aborted_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace midas::service
