// MIDAS — the distributed multilinear detection engine (paper Section IV).
//
// Structure (Fig. 1): N ranks are split into a = N/N1 phase groups of N1
// ranks; each group owns a full copy of the graph partition (rank g*N1+s
// owns part s) and processes every a-th phase. A phase evaluates N2
// consecutive iterations at once, so each halo exchange ships one batched
// message per neighboring part instead of N2 small ones (Section IV-B).
//
// Every application is one k-MLD evaluation on that schedule (Problem 3),
// so one driver (detail::run_driver) owns the rounds, phase waves,
// checkpoints, failover and speculation of all of them; an engine supplies
// only its recurrence, written once against a lane layout.
//
// Every rank's compute and communication are charged to its virtual clock
// (runtime/cost_model.hpp), so the returned makespan is the modeled
// parallel runtime; results are bit-identical to the sequential detectors
// for the same seed because all randomness is hash-derived and the final
// accumulator is an XOR (order-independent) allreduce.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detect_seq.hpp"
#include "core/errors.hpp"
#include "core/hashrand.hpp"
#include "core/motif.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "partition/partitioned_graph.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/comm.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace midas::core {

/// Durable-progress configuration (runtime/checkpoint.hpp). With a
/// non-empty `dir`, every driver snapshots its state at round boundaries
/// (and, on unsupervised runs, optionally every `every_waves` phase waves
/// within a round); `resume = true` restores the newest verified snapshot
/// and continues from it, reproducing the uninterrupted run's results
/// bit-exactly. Snapshot rendezvous are charge-free, so enabling
/// checkpoints never changes virtual clocks or the fault schedule.
struct CheckpointConfig {
  std::string dir;               // empty = checkpointing disabled
  int every_rounds = 1;          // snapshot cadence in completed rounds
  std::uint64_t every_waves = 0; // mid-round cadence in phase waves (0=off)
  bool resume = false;           // restore the newest good snapshot first
  int keep = 2;                  // snapshots retained on disk
  // Caller RNG position (Xoshiro256::state() words), stored verbatim in
  // every snapshot so a restart can also restore its generator stream.
  std::vector<std::uint64_t> rng_state;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Precomputed per-(seed, k) randomness for the k-path engine: the Z2^k
/// vectors v_i and level coefficients r_{i,j} of every (round, part),
/// exactly the values the engine would hash on the fly — the tables only
/// trade memory for per-round hashing, which a query service amortizes
/// across repeated (graph, seed, k) workloads. Coefficients are widened to
/// 64 bits so one table type serves every field.
struct RandTables {
  std::uint64_t seed = 0;
  int k = 0;
  int rounds = 0;
  int parts = 0;
  /// v[round * parts + part][li] = v_vector(seed, round, gid(li), k).
  std::vector<std::vector<std::uint32_t>> v;
  /// coeff[round * parts + part][(j-1)*nl + li] = r_{gid(li), j}.
  std::vector<std::vector<std::uint64_t>> coeff;

  [[nodiscard]] const std::vector<std::uint32_t>& v_of(int round,
                                                       int part) const {
    return v[static_cast<std::size_t>(round * parts + part)];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& coeff_of(int round,
                                                           int part) const {
    return coeff[static_cast<std::size_t>(round * parts + part)];
  }
};

/// The k-path randomness of one round on one part: v[li] and the level
/// coefficients r[(j-1)*nl + li], stored as `C`.
template <gf::GaloisField F, typename C>
void path_randomness(const partition::PartView& view, std::uint64_t seed,
                     int round, int k, const F& f,
                     std::vector<std::uint32_t>& v, std::vector<C>& r) {
  const std::size_t nl = view.num_local();
  v.resize(nl);
  r.resize(static_cast<std::size_t>(k) * nl);
  for (std::size_t li = 0; li < nl; ++li) {
    const graph::VertexId gid = view.vertices[li];
    v[li] = v_vector(seed, round, gid, k);
    for (int j = 1; j <= k; ++j)
      r[static_cast<std::size_t>(j - 1) * nl + li] = static_cast<C>(
          field_coeff(f, seed, round, gid, static_cast<std::uint32_t>(j)));
  }
}

/// Build the randomness tables for `rounds` rounds of a k-path run over
/// `views` (one entry per part) in field `f`.
template <gf::GaloisField F>
[[nodiscard]] RandTables build_rand_tables(
    const std::vector<partition::PartView>& views, std::uint64_t seed, int k,
    int rounds, const F& f) {
  RandTables rt{seed, k, rounds, static_cast<int>(views.size()), {}, {}};
  rt.v.resize(static_cast<std::size_t>(rounds) * views.size());
  rt.coeff.resize(rt.v.size());
  for (std::size_t i = 0; i < rt.v.size(); ++i)
    path_randomness(views[i % views.size()], seed,
                    static_cast<int>(i / views.size()), k, f, rt.v[i],
                    rt.coeff[i]);
  return rt;
}

struct MidasOptions {
  int k = 4;
  double epsilon = 0.05;
  std::uint64_t seed = 1;
  int n_ranks = 4;        // N
  int n1 = 2;             // ranks per phase group = graph parts
  std::uint32_t n2 = 16;  // iterations per phase (message batching)
  int max_rounds = 0;     // override epsilon-derived round count if > 0
  bool early_exit = true;
  // Inner-loop implementation (core/kernel.hpp; results report the kernel
  // it resolved to). Both kernels charge the same modeled work and ship
  // byte-identical halos, so clocks, fault schedules and snapshots are
  // kernel-independent.
  Kernel kernel = Kernel::kAuto;
  runtime::CostModel model{};
  // Fault injection & supervision (docs/RESILIENCE.md). A non-empty plan
  // forces supervision: every driver then masks any failure that leaves an
  // intact phase group. spmd.watchdog arms the straggler deadline (and,
  // with speculate, re-execution of a straggling group's phases).
  runtime::SpmdOptions spmd{};
  // Checkpoint/restart across *total* failures (docs/RESILIENCE.md).
  CheckpointConfig checkpoint{};
  // Optional precomputed randomness (non-owning), consumed by the k-path
  // recurrence (plain and weighted); it must match (seed, k, parts) and
  // cover rounds() rounds. Results are bit-identical without it.
  const RandTables* rand_tables = nullptr;

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds : rounds_for_epsilon(epsilon);
  }
};

struct MidasResult {
  bool found = false;
  int rounds_run = 0;
  int found_round = -1;
  double vtime = 0.0;   // modeled parallel makespan (seconds)
  double wall_s = 0.0;  // host wall-clock of the whole SPMD run
  runtime::CommStats total_stats;
  std::vector<double> vclocks;      // per rank
  std::vector<int> failed_ranks;    // world ranks lost to injected faults
  int resumed_from_round = -1;      // snapshot round this run resumed at
  Kernel kernel = Kernel::kScalar;  // the kernel the run resolved to
};

struct MidasScanResult {
  FeasibilityTable table;
  double vtime = 0.0;
  double wall_s = 0.0;
  runtime::CommStats total_stats;
  std::vector<double> vclocks;
  int resumed_from_round = -1;  // snapshot round this run resumed at
  Kernel kernel = Kernel::kScalar;  // the kernel the run resolved to
};

struct MidasWeightedResult {
  std::vector<bool> feasible_weight;  // achievable k-path weights
  std::optional<std::uint32_t> max_weight;
  double vtime = 0.0;
  double wall_s = 0.0;
  runtime::CommStats total_stats;
  int resumed_from_round = -1;  // snapshot round this run resumed at
  Kernel kernel = Kernel::kScalar;  // the kernel the run resolved to
};

namespace detail {

/// Fingerprint of everything a snapshot's validity depends on: engine,
/// detection parameters, rank/phase geometry, execution mode and the shape
/// of the partitioned input. A resume whose fingerprint differs is rejected
/// — restoring into another configuration would corrupt the answer.
[[nodiscard]] inline std::uint64_t config_fingerprint(
    std::uint64_t engine_tag, const MidasOptions& opt,
    const runtime::SpmdOptions& sopt, std::size_t value_bytes,
    const std::vector<partition::PartView>& views, std::uint64_t extra = 0) {
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &opt.epsilon, sizeof(eps_bits));
  std::vector<std::uint64_t> w{
      engine_tag, static_cast<std::uint64_t>(opt.k), opt.seed, eps_bits,
      static_cast<std::uint64_t>(opt.n_ranks),
      static_cast<std::uint64_t>(opt.n1), opt.n2,
      static_cast<std::uint64_t>(opt.rounds()), opt.early_exit ? 1u : 0u,
      sopt.supervise ? 1u : 0u,
      sopt.watchdog.speculate && sopt.watchdog.deadline_s > 0.0 ? 1u : 0u,
      static_cast<std::uint64_t>(value_bytes), extra};
  for (const auto& view : views) {
    w.push_back(view.num_local());
    w.push_back(view.num_ghosts());
    w.push_back(view.adj.size());
  }
  return runtime::fnv1a(std::as_bytes(std::span<const std::uint64_t>(w)));
}

/// Host-side checkpoint bookkeeping for one driver invocation.
struct CheckpointSession {
  std::optional<runtime::CheckpointStore> store;
  runtime::RoundCheckpoint loaded;  // meaningful when `resumed`
  bool resumed = false;
  runtime::RoundCheckpoint staged;
  bool staged_ok = false;

  [[nodiscard]] bool armed() const noexcept { return store.has_value(); }
};

/// Validate the checkpoint config, open the store and — on resume — load
/// and check the newest good snapshot, wiring its world state into
/// `sopt.resume`. `wave_accum_bytes` is the per-rank accumulator size of a
/// mid-round snapshot (0 = this run cannot resume mid-round).
inline CheckpointSession open_checkpoints(const MidasOptions& opt,
                                          runtime::SpmdOptions& sopt,
                                          std::uint64_t config_hash,
                                          std::size_t driver_bytes_per_round,
                                          std::size_t wave_accum_bytes) {
  CheckpointSession cs;
  if (!opt.checkpoint.enabled()) return cs;
  require_options(opt.checkpoint.every_rounds >= 1,
                  "checkpoint.every_rounds must be >= 1");
  require_options(opt.checkpoint.keep >= 1, "checkpoint.keep must be >= 1");
  cs.store.emplace(opt.checkpoint.dir, opt.checkpoint.keep);
  if (!opt.checkpoint.resume) return cs;
  auto ck = cs.store->load_latest();
  if (!ck) return cs;  // nothing durable yet: cold start
  if (ck->config_hash != config_hash)
    throw runtime::CheckpointError(
        "snapshot in " + opt.checkpoint.dir +
        " was written by an incompatible run configuration");
  const auto nranks = static_cast<std::size_t>(opt.n_ranks);
  if (ck->vclocks.size() != nranks || ck->events.size() != nranks ||
      ck->stats.size() != nranks)
    throw runtime::CheckpointError("snapshot rank count mismatch");
  if (ck->next_round > static_cast<std::uint32_t>(opt.rounds()))
    throw runtime::CheckpointError("snapshot round index out of range");
  if (ck->driver_state.size() !=
      static_cast<std::size_t>(ck->next_round) * driver_bytes_per_round)
    throw runtime::CheckpointError("snapshot driver state size mismatch");
  if (ck->phase_waves_done > 0) {
    if (wave_accum_bytes == 0)
      throw runtime::CheckpointError(
          "mid-round snapshot is not resumable by this driver/mode");
    if (ck->accum.size() != nranks)
      throw runtime::CheckpointError("snapshot accumulator arity mismatch");
    for (const auto& a : ck->accum)
      if (a.size() != wave_accum_bytes)
        throw runtime::CheckpointError(
            "snapshot accumulator size mismatch");
  }
  sopt.resume.vclocks = ck->vclocks;
  sopt.resume.events = ck->events;
  sopt.resume.stats = ck->stats;
  cs.loaded = std::move(*ck);
  cs.resumed = true;
  return cs;
}

/// Exchange one DP level: for each neighboring part, pack the batch-wide
/// values of the boundary vertices, alltoallv within the phase group, and
/// scatter incoming values into the ghost array.
template <typename V>
void halo_exchange(runtime::Comm& comm, const partition::PartView& view,
                   const std::vector<V>& local_vals,
                   std::vector<V>& ghost_vals, std::size_t batch) {
  MIDAS_TRACE_SPAN("engine.halo_exchange");
  const int p = comm.size();
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t) {
    const auto& list = view.send_to[static_cast<std::size_t>(t)];
    if (list.empty()) continue;
    auto& buf = send[static_cast<std::size_t>(t)];
    buf.resize(list.size() * batch * sizeof(V));
    std::byte* out = buf.data();
    for (std::uint32_t li : list) {
      std::memcpy(out, local_vals.data() + li * batch, batch * sizeof(V));
      out += batch * sizeof(V);
    }
    MIDAS_TRACE_COUNT("halo.messages", 1);
    MIDAS_TRACE_COUNT("halo.bytes", buf.size());
    MIDAS_TRACE_OBSERVE("halo.message_bytes", buf.size());
  }
  auto recv = comm.alltoallv(send);
  for (int t = 0; t < p; ++t) {
    const auto& targets = view.recv_from[static_cast<std::size_t>(t)];
    if (targets.empty()) continue;
    const auto& buf = recv[static_cast<std::size_t>(t)];
    MIDAS_ASSERT(buf.size() == targets.size() * batch * sizeof(V),
                 "halo message size mismatch");
    const std::byte* in = buf.data();
    for (std::uint32_t gi : targets) {
      std::memcpy(ghost_vals.data() + gi * batch, in, batch * sizeof(V));
      in += batch * sizeof(V);
    }
  }
}

// ---------------------------------------------------------------------------
// Lane layouts. A *row* holds one value per iteration lane of the current
// phase (one vertex, layer and weight); recurrences touch rows only through
// a layout. Every layout ships byte rows in halos and folds to the same
// field element, so clocks, snapshots and failover are kernel-independent.
// ---------------------------------------------------------------------------

/// The iterations [q0, q0 + batch) of the phase a layout's rows hold.
/// `batch` is 32-bit so that stores of 64-bit plane words cannot alias it.
struct PhaseWindow {
  std::uint64_t q0 = 0;
  std::uint32_t batch = 0;
};

/// Byte rows: one field value per lane, N2 values back to back (the
/// paper's Section IV-B layout, and the halo payload of every layout).
template <gf::GaloisField F>
class ByteLanes : public PhaseWindow {
 public:
  using V = typename F::value_type;
  using E = V;     // storage word of a row
  using Coef = V;  // a constant multiplier prepared by coef()
  static constexpr const char* kSpan = "engine.phase.scalar";

  explicit ByteLanes(const F& f) : f_(f) {}
  [[nodiscard]] std::size_t row() const noexcept { return batch; }

  /// Liveness [<v_i, q> = 0] of every (local vertex, lane) of the phase,
  /// as an all-ones (live) or zero value per lane, so that gating is an AND.
  // Loops copy `batch`: a store through a byte row may alias the member.
  void set_live(const std::vector<std::uint32_t>& v) {
    const std::size_t n = batch;
    live_.resize(v.size() * n);
    for (std::size_t li = 0; li < v.size(); ++li)
      for (std::size_t b = 0; b < n; ++b)
        live_[li * n + b] =
            inner_product_odd(v[li], static_cast<std::uint32_t>(q0 + b))
                ? V{0}
                : static_cast<V>(~V{0});
  }
  /// dst = c in the live lanes of local vertex li, zero elsewhere.
  void broadcast(E* dst, V c, std::uint32_t li) const {
    const std::size_t n = batch;
    const V* lv = live_.data() + li * n;
    for (std::size_t b = 0; b < n; ++b) dst[b] = static_cast<V>(c & lv[b]);
  }
  /// Zero the dead lanes of local vertex li.
  void gate(E* x, std::uint32_t li) const {
    const std::size_t n = batch;
    const V* lv = live_.data() + li * n;
    for (std::size_t b = 0; b < n; ++b) x[b] = static_cast<V>(x[b] & lv[b]);
  }
  /// dst[lane] = value(iteration of the lane).
  template <typename Fn>
  void set_lanes(E* dst, Fn&& value) const {
    const std::uint64_t first = q0;
    for (std::size_t b = 0, n = batch; b < n; ++b)
      dst[b] = value(static_cast<std::uint32_t>(first + b));
  }

  [[nodiscard]] Coef coef(V c) const noexcept { return c; }
  void zero(E* x) const { std::fill(x, x + batch, f_.zero()); }
  void add(E* dst, const E* src) const {
    for (std::size_t b = 0, n = batch; b < n; ++b)
      dst[b] = f_.add(dst[b], src[b]);
  }
  /// dst += sum_{i <= z} a_i * b_{z-i} lane-wise, x_i being the i-th row
  /// from x (z = 0: one product); false when all are known to be zero.
  bool mul_add(E* dst, const E* a, const E* b, std::size_t z) const {
    gf::mul_add_rows(f_, dst, a, b, z, batch);
    return true;
  }
  /// dst += c * src (one log lookup for the whole row).
  void scale_add(E* dst, Coef c, const E* src) const {
    gf::scale_add_row(f_, dst, c, src, batch);
  }
  /// XOR of lanes [0, lanes) over `n` rows spaced `step` rows apart.
  [[nodiscard]] V fold(const E* x, std::size_t n, std::size_t step,
                       std::size_t lanes) const {
    V s = f_.zero();
    for (std::size_t i = 0; i < n; ++i, x += step * batch)
      for (std::size_t b = 0; b < lanes; ++b) s = f_.add(s, x[b]);
    return s;
  }
  /// Halo exchange of `rows` consecutive rows per vertex.
  void exchange(runtime::Comm& group, const partition::PartView& view,
                const std::vector<E>& vals, std::vector<E>& ghost,
                std::size_t rows) {
    ghost.assign(static_cast<std::size_t>(view.num_ghosts()) * rows * batch,
                 f_.zero());
    halo_exchange(group, view, vals, ghost, rows * batch);
  }

 private:
  const F& f_;
  std::vector<V> live_;
};

/// Bit-sliced rows (gf/bitsliced.hpp): ceil(N2/64) blocks of l bit-planes,
/// one liveness mask per block, constants as plane matrices. Halos
/// transpose boundary rows to bytes and ghosts back to planes.
template <gf::Bitsliceable F>
class SlicedLanes : public PhaseWindow {
 public:
  using V = typename F::value_type;
  using BS = gf::BitslicedGF;
  using E = BS::word;
  using Coef = BS::Matrix;
  static constexpr const char* kSpan = "engine.phase.bitsliced";

  explicit SlicedLanes(const F& f) : bs_(f), l_(bs_.words()) {}
  [[nodiscard]] std::size_t nb() const noexcept {
    return (batch + BS::kLanes - 1) / BS::kLanes;
  }
  [[nodiscard]] std::size_t row() const noexcept {
    return nb() * static_cast<std::size_t>(l_);
  }
  void set_live(const std::vector<std::uint32_t>& v) {
    live_.resize(v.size() * nb());
    for (std::size_t li = 0; li < v.size(); ++li)
      for (std::size_t blk = 0; blk < nb(); ++blk)
        live_[li * nb() + blk] =
            BS::live_mask(v[li], q0 + blk * BS::kLanes, lanes_of(blk));
  }
  void broadcast(E* dst, V c, std::uint32_t li) const {
    for (std::size_t blk = 0; blk < nb(); ++blk)
      bs_.broadcast(dst + blk * l_, static_cast<BS::value_type>(c),
                    live_[li * nb() + blk]);
  }
  void gate(E* x, std::uint32_t li) const {
    for (std::size_t blk = 0; blk < nb(); ++blk)
      bs_.mask_block(x + blk * l_, live_[li * nb() + blk]);
  }
  template <typename Fn>
  void set_lanes(E* dst, Fn&& value) const {
    BS::value_type vals[BS::kLanes];
    for (std::size_t blk = 0; blk < nb(); ++blk) {
      const int lanes = lanes_of(blk);
      for (int b = 0; b < lanes; ++b)
        vals[b] = static_cast<BS::value_type>(value(
            static_cast<std::uint32_t>(q0 + blk * BS::kLanes + b)));
      bs_.pack_lanes(dst + blk * l_, vals, lanes);
    }
  }

  [[nodiscard]] Coef coef(V c) const noexcept {
    return bs_.matrix(static_cast<BS::value_type>(c));
  }
  void zero(E* x) const { std::fill(x, x + row(), E{0}); }
  void add(E* dst, const E* src) const {
    for (std::size_t i = 0, n = row(); i < n; ++i) dst[i] ^= src[i];
  }
  bool mul_add(E* dst, const E* a, const E* b, std::size_t z) const {
    const std::size_t n = row();
    bool any = false;
    for (std::size_t o = 0; o < n; o += l_)
      for (std::size_t i = 0; i <= z; ++i) {
        const E* x = a + i * n + o;
        if (bs_.is_zero(x)) continue;
        const E* y = b + (z - i) * n + o;
        if (bs_.is_zero(y)) continue;
        E prod[16];
        bs_.mul(prod, x, y);
        bs_.add_into(dst + o, prod);
        any = true;
      }
    return any;
  }
  void scale_add(E* dst, const Coef& c, const E* src) const {
    for (std::size_t o = 0, n = row(); o < n; o += l_) {
      E scaled[16];
      bs_.mul_matrix(scaled, c, src + o);
      bs_.add_into(dst + o, scaled);
    }
  }
  [[nodiscard]] V fold(const E* x, std::size_t n, std::size_t step,
                       std::size_t lanes) const {
    V s = 0;
    for (std::size_t blk = 0; blk * BS::kLanes < lanes; ++blk) {
      const std::size_t lv =
          std::min<std::size_t>(BS::kLanes, lanes - blk * BS::kLanes);
      E sum[16] = {};
      for (std::size_t i = 0; i < n; ++i)
        bs_.add_into(sum, x + i * step * row() + blk * l_);
      s = static_cast<V>(
          s ^ bs_.fold_xor(sum, lv >= BS::kLanes ? ~E{0} : (E{1} << lv) - 1));
    }
    return s;
  }
  void exchange(runtime::Comm& group, const partition::PartView& view,
                const std::vector<E>& vals, std::vector<E>& ghost,
                std::size_t rows) {
    const std::size_t nl = view.num_local(), ng = view.num_ghosts();
    stage_out_.resize(nl * rows * batch);
    for (std::uint32_t li : view.boundary)
      for (std::size_t r = li * rows; r < (li + 1) * rows; ++r)
        for (std::size_t blk = 0; blk < nb(); ++blk)
          bs_.unpack_lanes(stage_out_.data() + r * batch + blk * BS::kLanes,
                           vals.data() + r * row() + blk * l_,
                           lanes_of(blk));
    stage_ghost_.assign(ng * rows * batch, V{0});
    halo_exchange(group, view, stage_out_, stage_ghost_, rows * batch);
    ghost.resize(ng * rows * row());
    for (std::size_t r = 0; r < ng * rows; ++r)
      for (std::size_t blk = 0; blk < nb(); ++blk)
        bs_.pack_lanes(ghost.data() + r * row() + blk * l_,
                       stage_ghost_.data() + r * batch + blk * BS::kLanes,
                       lanes_of(blk));
  }

 private:
  [[nodiscard]] int lanes_of(std::size_t blk) const noexcept {
    return static_cast<int>(
        std::min<std::size_t>(BS::kLanes, batch - blk * BS::kLanes));
  }

  BS bs_;
  int l_;
  std::vector<E> live_;
  std::vector<V> stage_out_, stage_ghost_;
};

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// What a recurrence sees of its rank.
template <class Lanes>
struct RankCtx {
  runtime::Comm& world;
  runtime::Comm& group;
  const partition::PartView& view;
  Lanes& lanes;
  std::size_t nl = view.num_local();
  std::size_t ng = view.num_ghosts();
  std::uint64_t adj_bytes = view.adj.size() * sizeof(partition::NbrRef) +
                            view.adj_offsets.size() * sizeof(std::uint64_t);

  /// Memory model of one DP level: each lane op pulls a neighbor value,
  /// plus one adjacency pass; the working set `ws` decides hot/cold.
  void charge_level(std::uint64_t ops, std::uint64_t ws) const {
    world.charge_compute(ops);
    world.charge_memory(ops * sizeof(typename Lanes::V) + adj_bytes, ws);
  }
};

/// found[round * cells + c] is 1 when cell c of that round reduced to
/// nonzero; `result` reads cell 0 (the answer of path, tree and motif).
struct DriverRun {
  MidasResult result;
  std::vector<std::uint8_t> found;
  std::size_t cells = 1;

  /// hits()[c] is 1 when cell c reduced to nonzero in any round.
  [[nodiscard]] std::vector<std::uint8_t> hits() const {
    std::vector<std::uint8_t> h(cells);
    for (std::size_t i = 0; i < found.size(); ++i) h[i % cells] |= found[i];
    return h;
  }
};

/// The one distributed driver. `rec` is the engine's recurrence policy:
///   cells         per-round accumulator width (one field value each)
///   stops_on_hit  the answer is one yes/no bit, so under opt.early_exit a
///                 round that finds it ends the run
///   convolution   it convolves row products per edge and cell, for kAuto
///                 (core/kernel.hpp)
///   tag, extra    engine tag and input hash for the config fingerprint
///   Kernel<Lanes> per-rank state built from (rec, RankCtx&), with
///                 begin_round(round) and phase(acc): evaluate the lanes'
///                 current phase and XOR it into acc[0, cells)
/// A phase's contribution is self-inverse under XOR: running it twice
/// removes it again, which is how failover moves phases between groups
/// without a separate "undo" path.
template <gf::GaloisField F, class Rec>
DriverRun run_driver(const std::vector<partition::PartView>& views,
                     const MidasOptions& opt, const F& f, const Rec& rec) {
  using V = typename F::value_type;
  require_options(static_cast<int>(views.size()) == opt.n1,
                  "views must have N1 parts");
  require_options(opt.n1 >= 1 && opt.n1 <= opt.n_ranks &&
                      opt.n_ranks % opt.n1 == 0,
                  "N1 must divide N (phase groups need N/N1 whole replicas)");
  const Schedule sched =
      make_schedule(opt.k, opt.epsilon, opt.n_ranks, opt.n1, opt.n2);
  const Kernel kernel = resolve_kernel(
      opt.kernel, kernel_shape(f, rec.convolution, sched.n2));
  const bool bitsliced = kernel == Kernel::kBitsliced;
  const int rounds = opt.rounds();
  const std::size_t cells = rec.cells;
  // Supervision is implied by a non-empty fault plan or armed speculation
  // (straggler re-execution needs the supervised vote/redo machinery).
  runtime::SpmdOptions sopt = opt.spmd;
  const bool speculate =
      sopt.watchdog.speculate && sopt.watchdog.deadline_s > 0.0;
  sopt.supervise = sopt.supervise || !sopt.faults.empty() || speculate;

  DriverRun run;
  run.cells = cells;
  MidasResult& result = run.result;
  result.kernel = kernel;
  Timer wall;
  // Supervised runs charge different virtual time, so a snapshot resumes
  // only into the mode that wrote it; they snapshot at round boundaries
  // only, so mid-round (wave) resume exists on the clean path alone.
  const std::uint64_t chash =
      config_fingerprint(rec.tag, opt, sopt, sizeof(V), views, rec.extra);
  CheckpointSession cs = open_checkpoints(
      opt, sopt, chash, cells, sopt.supervise ? 0 : cells * sizeof(V));
  const int start_round =
      cs.resumed ? static_cast<int>(cs.loaded.next_round) : 0;
  const std::uint64_t start_wave = cs.resumed ? cs.loaded.phase_waves_done : 0;
  // Atomic: every rank records each round (see below).
  std::vector<std::atomic<std::uint8_t>> found(
      static_cast<std::size_t>(rounds) * cells);
  if (cs.resumed) {
    result.resumed_from_round = start_round;
    for (std::size_t i = 0; i < cs.loaded.driver_state.size(); ++i)
      found[i] = cs.loaded.driver_state[i];
  }
  // Mid-round snapshot accumulators, slot r written only by world rank r.
  std::vector<std::vector<std::uint8_t>> accum_stage(
      static_cast<std::size_t>(opt.n_ranks));
  // Collective snapshot: captured with every peer parked, skipped if any
  // rank already failed (a resumable world must be consistent), written
  // by rank 0 alone while peers park at their next rendezvous.
  auto snapshot = [&](runtime::Comm& world, int next_round,
                      std::uint64_t waves_done) {
    MIDAS_TRACE_SPAN("checkpoint.snapshot", {"next_round", next_round});
    world.snapshot_sync([&] {
      cs.staged_ok = false;
      if (!world.failed_world_ranks().empty()) return;
      cs.staged.config_hash = chash;
      cs.staged.next_round = static_cast<std::uint32_t>(next_round);
      cs.staged.phase_waves_done = waves_done;
      cs.staged.driver_state.assign(
          found.begin(), found.begin() + next_round * cells);
      cs.staged.accum = accum_stage;
      cs.staged.vclocks = world.world_vclocks();
      cs.staged.events = world.world_event_counts();
      cs.staged.stats = world.world_stats_snapshot();
      cs.staged.rng_state = opt.checkpoint.rng_state;
      cs.staged_ok = true;
    });
    if (world.rank() == 0 && cs.staged_ok) (void)cs.store->write(cs.staged);
  };
  const auto xor_into = [&f](V& a, const V& b) { a = f.add(a, b); };

  auto spmd = runtime::run_spmd(opt.n_ranks, opt.model, sopt,
                                [&](runtime::Comm& world) {
    const int color = world.rank() / opt.n1;
    // Supervised world collectives shrink over survivors; the phase group
    // keeps kThrow: a group that lost a member's part cannot continue.
    if (world.supervised())
      world.set_fail_policy(runtime::FailPolicy::kShrink);
    runtime::Comm group = world.split(color, world.rank() % opt.n1);
    // A resumed run overwrites the re-charged setup state here.
    world.resume_sync();
    // The part a rank owns is fixed by its world rank — never by its rank
    // in `group`, which shifts when the split excluded a dead member.
    const auto& view = views[static_cast<std::size_t>(world.rank() % opt.n1)];

    auto body = [&](auto lanes) {
      using Lanes = decltype(lanes);
      RankCtx<Lanes> ctx{world, group, view, lanes};
      typename Rec::template Kernel<Lanes> kern(rec, ctx);
      std::vector<V> acc(cells);
      std::vector<std::uint64_t> own, have;  // phases owned / folded in acc
      for (std::uint64_t p = static_cast<std::uint64_t>(color);
           p < sched.phases(); p += sched.groups())
        own.push_back(p);
      auto compute_phase = [&](std::uint64_t phase) {
        MIDAS_TRACE_SPAN(Lanes::kSpan,
                         {"phase", static_cast<std::int64_t>(phase)});
        [[maybe_unused]] const double vt0 = world.vclock();
        const auto [q0, q1] = sched.phase_range(phase);
        lanes.q0 = q0;
        lanes.batch = static_cast<std::uint32_t>(q1 - q0);
        kern.phase(acc.data());
        MIDAS_TRACE_OBSERVE("engine.phase_vtime_ns",
                            (world.vclock() - vt0) * 1e9);
      };
      auto drop = [&] {
        std::fill(acc.begin(), acc.end(), f.zero());
        have.clear();
      };

      // Clean path: the paper's MPIREDUCE per round. Phases are walked as
      // uniform waves (wave w = phase color + w*a) so every rank reaches a
      // mid-round snapshot in lockstep although groups own unequal counts.
      auto clean_round = [&](int round) {
        std::uint64_t w0 = 0;
        if (round == start_round && start_wave > 0) {
          // Mid-round resume: the restored accumulator folds its waves.
          w0 = start_wave;
          std::memcpy(
              acc.data(),
              cs.loaded.accum[static_cast<std::size_t>(world.rank())].data(),
              cells * sizeof(V));
        }
        const std::uint64_t waves = sched.batches();
        for (std::uint64_t w = w0; w < waves; ++w) {
          MIDAS_TRACE_SPAN("engine.wave",
                           {"wave", static_cast<std::int64_t>(w)});
          if (w < own.size()) compute_phase(own[w]);
          if (cs.armed() && opt.checkpoint.every_waves > 0 &&
              w + 1 < waves && (w + 1) % opt.checkpoint.every_waves == 0) {
            auto& slot = accum_stage[static_cast<std::size_t>(world.rank())];
            slot.resize(cells * sizeof(V));
            std::memcpy(slot.data(), acc.data(), slot.size());
            snapshot(world, round, w + 1);
          }
        }
        world.allreduce<V>(std::span<V>(acc), xor_into);
      };

      // Supervised: speculative compute, then the vote/redo protocol
      // (docs/RESILIENCE.md). Completed rounds are never redone. Returns
      // the agreed failure view.
      auto supervised_round = [&](int round) {
        have.clear();
        bool computing = group.size() == opt.n1 && !group.any_peer_failed();
        auto compute_own = [&](std::size_t from, std::size_t to) {
          if (!computing) return;
          try {
            for (std::size_t i = from; i < to; ++i) {
              compute_phase(own[i]);
              have.push_back(own[i]);
            }
          } catch (const runtime::RankFailedError&) {
            // A group member died: intact groups recompute all our phases.
            drop();
            computing = false;
          }
        };
        std::vector<int> slow_groups;
        std::size_t first = 0;
        if (speculate && sched.groups() > 1) {
          // Probe wave: each intact group computes its first phase, then a
          // group lagging the fastest by more than the deadline is voted a
          // straggler and donates its phases like a dead group.
          first = std::min<std::size_t>(1, own.size());
          compute_own(0, first);
          slow_groups =
              world.straggling_groups(opt.n1, sopt.watchdog.deadline_s);
          if (!slow_groups.empty())
            MIDAS_TRACE_INSTANT(
                "watchdog.straggler_vote",
                {"slow_groups",
                 static_cast<std::int64_t>(slow_groups.size())});
          // A straggler stops computing; the vote decides whether its probe
          // survives (only when no fast group is left to take over).
          if (std::binary_search(slow_groups.begin(), slow_groups.end(),
                                 color))
            computing = false;
        }
        compute_own(first, own.size());

        std::vector<V> reduced;
        std::uint64_t agreed = 0;
        std::vector<int> agreed_failed;
        while (true) {
          // Vote on the failure view: lo == hi of the hashed failed-rank
          // lists iff all survivors saw the same view. The result is
          // shared, so no rank can leave the loop while a peer redoes.
          std::vector<int> failed = world.failed_world_ranks();
          using Range = std::array<std::uint64_t, 2>;  // {lo, hi}
          Range hr;
          hr[0] = hr[1] = runtime::fnv1a(std::as_bytes(std::span(failed)));
          world.allreduce<Range>(std::span(&hr, 1),
                                 [](Range& a, const Range& b) {
                                   a = {std::min(a[0], b[0]),
                                        std::max(a[1], b[1])};
                                 });
          if (hr[0] != hr[1]) continue;  // views diverged: re-read, re-vote
          if (!reduced.empty() && hr[0] == agreed) break;  // stable: accept
          agreed = hr[0];
          agreed_failed = std::move(failed);
          MIDAS_TRACE_INSTANT(
              "failover.vote", {"round", round},
              {"failed", static_cast<std::int64_t>(agreed_failed.size())});
          MIDAS_TRACE_COUNT("failover.votes", 1);

          // Both inputs are shared, so every survivor reaches this split.
          const FailoverRoles roles =
              failover_roles(sched, agreed_failed, slow_groups);
          if (roles.workers.empty())
            throw runtime::UnrecoverableFaultError(
                "every phase group lost a member; no intact graph replica "
                "left to recompute their phases");
          if (!std::binary_search(roles.workers.begin(), roles.workers.end(),
                                  color)) {
            // The workers recompute my group's share: contribute zero.
            drop();
          } else {
            std::vector<std::uint64_t> want = own;
            const auto extra =
                failover_phases(sched, roles.donors, roles.workers, color);
            want.insert(want.end(), extra.begin(), extra.end());
            std::sort(want.begin(), want.end());
            std::vector<std::uint64_t> delta;
            std::set_symmetric_difference(want.begin(), want.end(),
                                          have.begin(), have.end(),
                                          std::back_inserter(delta));
            if (!delta.empty()) {
              MIDAS_TRACE_INSTANT(
                  "failover.redo",
                  {"phases", static_cast<std::int64_t>(delta.size())});
              MIDAS_TRACE_COUNT("failover.phases_redone", delta.size());
            }
            try {
              // XOR self-inverse: entering phases are added and leaving
              // ones cancelled by the same computation.
              for (std::uint64_t phase : delta) compute_phase(phase);
              have = std::move(want);
            } catch (const runtime::RankFailedError&) {
              drop();
            }
          }

          reduced = acc;
          world.allreduce<V>(std::span<V>(reduced), xor_into);
          // Re-vote: a rank that died inside this allreduce changes the
          // view, and the reduction is redone without it.
        }
        acc = std::move(reduced);
        return agreed_failed;
      };

      for (int round = start_round; round < rounds; ++round) {
        MIDAS_TRACE_SPAN("engine.round", {"round", round});
        kern.begin_round(round);
        std::fill(acc.begin(), acc.end(), f.zero());
        // A round completed via failover is correct but not a clean resume
        // point; the uniform vote lets all survivors skip its snapshot.
        bool snapshot_ok = true;
        if (world.supervised())
          snapshot_ok = supervised_round(round).empty();
        else
          clean_round(round);
        // Every rank records the shared reduction: a designated writer
        // could die inside the very vote the others accepted, silently
        // losing the round.
        bool hit = false;
        for (std::size_t c = 0; c < cells; ++c)
          if (acc[c] != f.zero()) {
            found[static_cast<std::size_t>(round) * cells + c] = 1;
            hit = true;
          }
        if (!world.supervised()) world.barrier();
        // `stop` reads the shared reduction, so the cadence is uniform.
        const bool stop = rec.stops_on_hit && opt.early_exit && hit;
        if (snapshot_ok && cs.armed() &&
            (round + 1) % opt.checkpoint.every_rounds == 0 &&
            round + 1 < rounds && !stop) {
          accum_stage[static_cast<std::size_t>(world.rank())].clear();
          snapshot(world, round + 1, 0);
        }
        if (stop) break;
      }
    };
    if constexpr (gf::Bitsliceable<F>) {
      if (bitsliced) {
        body(SlicedLanes<F>(f));
        return;
      }
    }
    body(ByteLanes<F>(f));
  });

  // Failover masks any failure that leaves an intact group; if nobody
  // survived to finish the rounds, surface the typed fault instead of
  // returning an all-zero (silently wrong) answer.
  if (static_cast<int>(spmd.failed_ranks.size()) == opt.n_ranks &&
      spmd.first_error)
    std::rethrow_exception(spmd.first_error);
  result.wall_s = wall.elapsed_s();
  result.vtime = spmd.makespan;
  result.total_stats = spmd.total;
  result.vclocks = std::move(spmd.vclocks);
  result.failed_ranks = std::move(spmd.failed_ranks);
  run.found.assign(found.begin(), found.end());
  for (int round = 0; round < rounds; ++round) {
    ++result.rounds_run;
    if (run.found[static_cast<std::size_t>(round) * cells] != 0) {
      result.found = true;
      result.found_round = round;
      break;
    }
  }
  if (!opt.early_exit) result.rounds_run = rounds;
  return run;
}

/// Per-vertex inputs (weights, colors) must cover every vertex of the parts.
inline void require_vertex_values(
    const std::vector<partition::PartView>& views, std::size_t count,
    const char* what) {
  std::size_t total_local = 0;
  for (const auto& view : views) total_local += view.num_local();
  require_options(count == total_local, what);
}

// ---------------------------------------------------------------------------
// Recurrences
// ---------------------------------------------------------------------------

/// The k-path walk DP (paper Algorithm 1): P(i, q, 1) = [<v_i,q> = 0] r_i1,
/// P(i, q, j) = [<v_i,q> = 0] r_ij * sum_{u ~ i} P(u, q, j-1), folded at
/// level k. With `weights`, row z of a vertex holds the walks of weight z
/// and the accumulator has a cell per weight (Problem 3 part 2).
template <gf::GaloisField F>
struct PathRec {
  using V = typename F::value_type;
  const F& f;
  const MidasOptions& opt;
  const std::vector<std::uint32_t>* weights;  // null: plain k-path
  std::uint32_t width;
  std::size_t cells = width;
  bool stops_on_hit = weights == nullptr;
  bool convolution = false;
  std::uint64_t tag;
  std::uint64_t extra;

  PathRec(const std::vector<partition::PartView>& views,
          const MidasOptions& o, const F& fld,
          const std::vector<std::uint32_t>* w = nullptr)
      : f(fld),
        opt(o),
        weights(w),
        width(w ? max_weight_sum(*w, o.k) + 1 : 1),
        tag(w ? 0x776b70617468ULL /* "wkpath" */
              : 0x6b70617468ULL /* "kpath" */),
        extra(w ? runtime::fnv1a(std::as_bytes(std::span(*w))) : 0) {
    if (o.rand_tables != nullptr)
      require_options(o.rand_tables->seed == o.seed &&
                          o.rand_tables->k == o.k &&
                          o.rand_tables->parts ==
                              static_cast<int>(views.size()) &&
                          o.rand_tables->rounds >= o.rounds(),
                      "rand_tables do not match this run's "
                      "(seed, k, parts, rounds)");
  }

  template <class Lanes>
  struct Kernel {
    using E = typename Lanes::E;
    const PathRec& rec;
    RankCtx<Lanes>& ctx;
    const std::size_t nl;
    std::vector<std::uint32_t> v, wt;  // Z2^k vectors, vertex weights
    std::vector<V> r;                  // r[(j-1)*nl + li]
    std::vector<typename Lanes::Coef> coef;  // the r of levels j >= 2
    std::uint64_t level_units = 0;  // sum_i (width - w_i) * (deg_i + 1)
    std::vector<E> cur, next, ghost, sum;

    Kernel(const PathRec& rc, RankCtx<Lanes>& c)
        : rec(rc),
          ctx(c),
          nl(c.nl),
          v(nl),
          wt(nl),
          r(rc.opt.k * nl),
          coef((rc.opt.k - 1) * nl) {
      const auto& off = ctx.view.adj_offsets;
      for (std::size_t li = 0; li < nl; ++li) {
        if (rec.weights) wt[li] = (*rec.weights)[ctx.view.vertices[li]];
        level_units += (rec.width - wt[li]) * (off[li + 1] - off[li] + 1);
      }
    }

    void begin_round(int round) {
      if (rec.opt.rand_tables != nullptr) {
        // Cached randomness: same hash values, precomputed once per
        // (seed, k) and shared across queries (see RandTables).
        const int part = ctx.world.rank() % rec.opt.n1;
        const auto& vt = rec.opt.rand_tables->v_of(round, part);
        const auto& ct = rec.opt.rand_tables->coeff_of(round, part);
        std::copy(vt.begin(), vt.end(), v.begin());
        for (std::size_t i = 0; i < r.size(); ++i)
          r[i] = static_cast<V>(ct[i]);
      } else {
        path_randomness(ctx.view, rec.opt.seed, round, rec.opt.k, rec.f, v,
                        r);
      }
      // Level multipliers are fixed per round: prepare them once,
      // amortized over every phase and failover redo.
      for (std::size_t i = 0; i < coef.size(); ++i)
        coef[i] = ctx.lanes.coef(r[nl + i]);
    }

    void phase(V* acc) {
      auto& L = ctx.lanes;
      const auto& view = ctx.view;
      const std::size_t batch = L.batch, rw = L.row(), W = rec.width;
      const std::size_t stride = W * rw;
      cur.assign(nl * stride, E{});
      next.assign(nl * stride, E{});
      sum.resize(rw);
      const std::uint64_t ws =
          ctx.adj_bytes +
          (rec.weights ? (nl + ctx.ng) * W * batch * sizeof(V)
                       : ((2 * nl + ctx.ng) * batch + r.size()) * sizeof(V));

      // Base case at the vertex's own weight; liveness serves all levels.
      L.set_live(v);
      for (std::size_t li = 0; li < nl; ++li)
        L.broadcast(&cur[li * stride + wt[li] * rw], r[li], li);
      ctx.world.charge_compute(nl * batch);

      // Inductive steps with one halo exchange per level: the neighbor
      // sum, gated by liveness, times the level coefficient.
      for (int j = 2; j <= rec.opt.k; ++j) {
        L.exchange(ctx.group, view, cur, ghost, W);
        const auto* cj = coef.data() + (j - 2) * nl;
        for (std::size_t li = 0; li < nl; ++li)
          for (std::size_t z = 0; z < W; ++z) {
            E* out = &next[li * stride + z * rw];
            L.zero(out);
            if (z < wt[li]) continue;  // lighter than the vertex itself
            L.zero(sum.data());
            const auto end = view.adj_offsets[li + 1];
            for (auto e = view.adj_offsets[li]; e < end; ++e) {
              const auto ref = view.adj[e];
              L.add(sum.data(), (ref.is_ghost() ? ghost : cur).data() +
                                    ref.index() * stride + (z - wt[li]) * rw);
            }
            L.gate(sum.data(), li);
            L.scale_add(out, cj[li], sum.data());
          }
        ctx.charge_level(level_units * batch, ws);
        std::swap(cur, next);
      }
      for (std::size_t z = 0; z < W; ++z)
        acc[z] = rec.f.add(acc[z], L.fold(&cur[z * rw], nl, W, batch));
      ctx.world.charge_compute(nl * batch);
    }
  };
};

/// The k-tree DP over a template decomposition (paper Algorithm 3): leaves
/// are [<v_i,q> = 0] r_{i,s}; an internal subtemplate multiplies its own
/// child at i by the neighbor sum of its other child, which crosses parts.
template <gf::GaloisField F>
struct TreeRec {
  using V = typename F::value_type;
  const F& f;
  const MidasOptions& opt;
  const TreeDecomposition& td;
  std::vector<bool> needs_exchange;
  std::size_t cells = 1;
  bool stops_on_hit = true;
  bool convolution = false;
  std::uint64_t tag = 0x6b74726565ULL;  // "ktree"
  std::uint64_t extra = 0;              // decomposition shape

  TreeRec(const MidasOptions& o, const F& fld, const TreeDecomposition& t)
      : f(fld), opt(o), td(t), needs_exchange(t.subtemplates().size()) {
    std::vector<std::uint64_t> tw{static_cast<std::uint64_t>(t.root_id())};
    for (const auto& sub : t.subtemplates()) {
      if (sub.child1 >= 0)
        needs_exchange[static_cast<std::size_t>(sub.child2)] = true;
      tw.push_back(static_cast<std::uint64_t>(sub.child1));
      tw.push_back(static_cast<std::uint64_t>(sub.child2));
      tw.push_back(static_cast<std::uint64_t>(sub.template_vertex));
    }
    extra = runtime::fnv1a(std::as_bytes(std::span(tw)));
  }

  template <class Lanes>
  struct Kernel {
    using E = typename Lanes::E;
    const TreeRec& rec;
    RankCtx<Lanes>& ctx;
    const std::vector<SubTemplate>& subs;
    const std::size_t nl;
    std::vector<std::uint32_t> v;
    std::vector<V> leaf;  // leaf[s*nl + li] = r_{i,s} of leaf subtemplate s
    std::vector<std::vector<E>> vals, ghost;
    std::vector<E> sum;

    Kernel(const TreeRec& rc, RankCtx<Lanes>& c)
        : rec(rc),
          ctx(c),
          subs(rc.td.subtemplates()),
          nl(c.nl),
          v(nl),
          leaf(subs.size() * nl),
          vals(subs.size()),
          ghost(subs.size()) {}

    void begin_round(int round) {
      for (std::size_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = ctx.view.vertices[li];
        v[li] = v_vector(rec.opt.seed, round, gid, rec.opt.k);
        for (std::size_t s = 0; s < subs.size(); ++s)
          if (subs[s].child1 < 0)
            leaf[s * nl + li] = field_coeff(rec.f, rec.opt.seed, round, gid,
                                            static_cast<std::uint32_t>(s));
      }
    }

    void phase(V* acc) {
      auto& L = ctx.lanes;
      const auto& view = ctx.view;
      const std::size_t batch = L.batch, rw = L.row();
      const std::uint64_t ws =
          ctx.adj_bytes + subs.size() * nl * batch * sizeof(V);
      sum.resize(rw);
      L.set_live(v);
      for (std::size_t s = 0; s < subs.size(); ++s) {
        const auto& sub = subs[s];
        auto& out = vals[s];
        out.assign(nl * rw, E{});
        std::uint64_t ops = nl * batch;
        if (sub.child1 < 0) {
          for (std::size_t li = 0; li < nl; ++li)
            L.broadcast(&out[li * rw], leaf[s * nl + li], li);
        } else {
          const auto& own = vals[static_cast<std::size_t>(sub.child1)];
          const auto& oth = vals[static_cast<std::size_t>(sub.child2)];
          const auto& og = ghost[static_cast<std::size_t>(sub.child2)];
          for (std::size_t li = 0; li < nl; ++li) {
            L.zero(sum.data());
            const auto end = view.adj_offsets[li + 1];
            for (auto e = view.adj_offsets[li]; e < end; ++e) {
              const auto ref = view.adj[e];
              L.add(sum.data(),
                    (ref.is_ghost() ? og : oth).data() + ref.index() * rw);
            }
            L.mul_add(&out[li * rw], &own[li * rw], sum.data(), 0);
          }
          // One add per adjacency entry per lane on top of the multiply.
          ops += view.adj.size() * batch;
        }
        ctx.charge_level(ops, ws);
        if (rec.needs_exchange[s])
          L.exchange(ctx.group, view, out, ghost[s], 1);
      }
      const auto& root = vals[static_cast<std::size_t>(rec.td.root_id())];
      acc[0] = rec.f.add(acc[0], L.fold(root.data(), nl, 1, batch));
      ctx.world.charge_compute(nl * batch);
    }
  };
};

/// The layered connected-subgraph DP (paper Algorithm 5): layer j holds
/// subtrees of size j, row (y, z) of a vertex those of baseline y and
/// weight z, and P(i,j,y,z) = sum_{u ~ i} sigma_{i,u,j} sum_{j1,y1,z1}
/// P(i,j1,y1,z1) P(u,j-j1,y-y1,z-z1). Scan feasibility runs it with the
/// weight axis (height 1), liveness-gated leaves and a fold of every cell;
/// Problem 2 (core/scan2d.hpp) adds the baseline axis of height
/// max_baseline + 1, another variable of the same generating function;
/// the Graph Motif sieve (core/motif.hpp) is the recurrence at 1 x 1 with
/// shade-subset leaves and a level-k fold.
template <gf::GaloisField F>
struct LayeredRec {
  using V = typename F::value_type;
  const F& f;
  const MidasOptions& opt;
  const std::vector<std::uint32_t>* weights;  // scan (exactly one of
  const ShadePlan* plan;                      // these two), or motif
  std::uint64_t extra;                        // hash of the input
  const std::vector<std::uint32_t>* baselines = nullptr;  // Problem 2 only
  std::uint32_t height = 1;  // baseline axis: max_baseline + 1
  std::uint32_t width = plan ? 1 : max_weight_sum(*weights, opt.k) + 1;
  std::size_t plane = static_cast<std::size_t>(height) * width;
  std::size_t cells = plan ? 1 : static_cast<std::size_t>(opt.k + 1) * plane;
  bool stops_on_hit = plan != nullptr;
  bool convolution = plane > 1;
  std::uint64_t tag = plan        ? 0x6d6f746966ULL /* "motif" */
                      : baselines ? 0x7363616e3264ULL /* "scan2d" */
                                  : 0x7363616eULL /* "scan" */;

  template <class Lanes>
  struct Kernel {
    using E = typename Lanes::E;
    const LayeredRec& rec;
    RankCtx<Lanes>& ctx;
    const std::size_t nl;
    const int k;
    int round = 0;
    std::vector<std::uint32_t> v;
    // Scan: the level-1 coefficient at [li]; motif: u_{i,s} at [li*k + s].
    // Ghost leaves arrive through the halo, never by recomputation.
    std::vector<V> leaf;
    std::vector<std::vector<E>> vals, ghost;  // per layer j in [1, k]
    std::vector<E> sum;

    Kernel(const LayeredRec& rc, RankCtx<Lanes>& c)
        : rec(rc),
          ctx(c),
          nl(c.nl),
          k(rc.opt.k),
          v(nl),
          leaf(nl * k),
          vals(k + 1),
          ghost(k + 1) {}

    void begin_round(int r) {
      round = r;
      for (std::size_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = ctx.view.vertices[li];
        if (rec.plan == nullptr) {
          v[li] = v_vector(rec.opt.seed, round, gid, k);
          leaf[li] = field_coeff(rec.f, rec.opt.seed, round, gid, 1);
          continue;
        }
        const std::uint32_t mask = rec.plan->vertex_mask[gid];
        for (int s = 0; s < k; ++s)
          if (((mask >> s) & 1u) != 0)
            leaf[li * k + s] = shade_coeff(rec.f, rec.opt.seed, round, gid,
                                           static_cast<std::uint32_t>(s));
      }
    }

    void phase(V* acc) {
      auto& L = ctx.lanes;
      const auto& view = ctx.view;
      const std::size_t batch = L.batch, rw = L.row(), H = rec.height,
                        W = rec.width, P = rec.plane;
      const std::size_t stride = P * rw;
      for (int j = 1; j <= k; ++j) vals[j].assign(nl * stride, E{});
      sum.resize(rw);
      const std::uint64_t ws =
          ctx.adj_bytes + k * (nl + ctx.ng) * P * batch * sizeof(V);

      // Base case: the shade-subset leaf values d_i(q) (motif), or the
      // level-1 coefficient in the live lanes at the vertex's own
      // (baseline, weight) row; a vertex over the baseline cap has none.
      if (rec.plan != nullptr) {
        for (std::size_t li = 0; li < nl; ++li) {
          const std::uint32_t mask = rec.plan->vertex_mask[view.vertices[li]];
          const V* us = leaf.data() + li * k;
          L.set_lanes(&vals[1][li * rw], [&](std::uint32_t q) {
            return detail_motif::shade_value(rec.f, us, mask, q);
          });
        }
      } else {
        L.set_live(v);
        for (std::size_t li = 0; li < nl; ++li) {
          const std::size_t c =
              scan_leaf_row(*rec.weights, rec.baselines, rec.height, rec.width,
                            view.vertices[li]);
          if (c < P) L.broadcast(&vals[1][li * stride + c * rw], leaf[li], li);
        }
      }
      ctx.world.charge_compute(nl * batch);
      L.exchange(ctx.group, view, vals[1], ghost[1], P);

      for (int j = 2; j <= k; ++j) {
        for (std::size_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          E* out = &vals[j][li * stride];
          const auto end = view.adj_offsets[li + 1];
          for (auto e = view.adj_offsets[li]; e < end; ++e) {
            const auto ref = view.adj[e];
            const std::uint32_t idx = ref.index();
            const auto sig = L.coef(sigma_coeff(
                rec.f, rec.opt.seed, round, gid,
                ref.is_ghost() ? view.ghosts[idx] : view.vertices[idx],
                static_cast<std::uint32_t>(j)));
            // Convolve into one row per (baseline, weight), then fold it in
            // with a single scale by sigma (value-identical by
            // distributivity).
            for (std::size_t y = 0; y < H; ++y)
              for (std::size_t z = 0; z < W; ++z) {
                L.zero(sum.data());
                bool any = false;
                for (int j1 = 1; j1 <= j - 1; ++j1) {
                  const E* own = &vals[j1][li * stride];
                  const E* oth =
                      (ref.is_ghost() ? ghost[j - j1] : vals[j - j1]).data() +
                      idx * stride;
                  for (std::size_t y1 = 0; y1 <= y; ++y1)
                    any |= L.mul_add(sum.data(), own + y1 * W * rw,
                                     oth + (y - y1) * W * rw, z);
                }
                if (any) L.scale_add(out + (y * W + z) * rw, sig, sum.data());
              }
          }
        }
        // The scalar (edge, j1, y, y1, z, z1) row sweep in closed form;
        // motif's charge also counts the sigma scale of each edge row.
        const std::uint64_t per_edge =
            rec.plan != nullptr
                ? static_cast<std::uint64_t>(j)
                : (j - 1) * (W * (W + 1) / 2) * (H * (H + 1) / 2);
        ctx.charge_level(view.adj.size() * per_edge * batch, ws);
        if (j < k) L.exchange(ctx.group, view, vals[j], ghost[j], P);
      }

      if (rec.plan != nullptr) {
        acc[0] = rec.f.add(acc[0], L.fold(vals[k].data(), nl, 1, batch));
        ctx.world.charge_compute(nl * batch);
        return;
      }
      // Per-(j, y, z) sums. As in the sequential detector, size-j sums fold
      // only iterations q < 2^j (degree-j detection lives in that
      // subgroup; folding all 2^k iterations would cancel sizes < k).
      for (int j = 1; j <= k; ++j) {
        const std::uint64_t jlimit = std::uint64_t{1} << j;
        if (L.q0 >= jlimit) continue;
        const std::size_t lanes =
            std::min<std::uint64_t>(batch, jlimit - L.q0);
        for (std::size_t c = 0; c < P; ++c)
          acc[j * P + c] = rec.f.add(acc[j * P + c],
                                     L.fold(&vals[j][c * rw], nl, P, lanes));
      }
      ctx.world.charge_compute(nl * batch * k);
    }
  };
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Distributed k-path detection over *pre-built* part views — the entry
/// point for callers (the detection service, repeated-query sweeps) that
/// amortize `build_part_views` across runs. Bit-identical to midas_kpath
/// on the views built from the same (graph, partition).
template <gf::GaloisField F>
MidasResult midas_kpath_views(const std::vector<partition::PartView>& views,
                              const MidasOptions& opt, const F& f = F{}) {
  const detail::PathRec<F> rec(views, opt, f);
  return detail::run_driver(views, opt, f, rec).result;
}

/// Distributed k-path detection. `part` must have exactly opt.n1 parts.
template <gf::GaloisField F>
MidasResult midas_kpath(const graph::Graph& g,
                        const partition::Partition& part,
                        const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  return midas_kpath_views(partition::build_part_views(g, part), opt, f);
}

/// Distributed *directed* k-path detection: the same engine over
/// in-neighbor halo views (see partition::build_dipart_views).
template <gf::GaloisField F>
MidasResult midas_kpath_directed(const graph::DiGraph& g,
                                 const partition::Partition& part,
                                 const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  return midas_kpath_views(partition::build_dipart_views(g, part), opt, f);
}

/// Distributed k-tree detection over pre-built part views (the
/// artifact-cached twin of midas_ktree; see midas_kpath_views).
template <gf::GaloisField F>
MidasResult midas_ktree_views(const std::vector<partition::PartView>& views,
                              const TreeDecomposition& td,
                              const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(td.k() == opt.k, "template size must equal opt.k");
  const detail::TreeRec<F> rec(opt, f, td);
  return detail::run_driver(views, opt, f, rec).result;
}

/// Distributed k-tree detection for a template decomposition.
template <gf::GaloisField F>
MidasResult midas_ktree(const graph::Graph& g,
                        const partition::Partition& part,
                        const TreeDecomposition& td, const MidasOptions& opt,
                        const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  return midas_ktree_views(partition::build_part_views(g, part), td, opt, f);
}

/// Distributed (size, weight) feasibility for connected subgraphs — the
/// parallel form of Algorithm 5. Messages carry the whole weight axis, so a
/// phase ships (W+1) * N2 values per boundary vertex per size step.
template <gf::GaloisField F>
MidasScanResult midas_scan_views(
    const std::vector<partition::PartView>& views,
    const std::vector<std::uint32_t>& weights, const MidasOptions& opt,
    const F& f = F{}) {
  detail::require_vertex_values(views, weights.size(),
                                "one weight per vertex required");
  const detail::LayeredRec<F> rec{
      f, opt, &weights, nullptr,
      runtime::fnv1a(std::as_bytes(std::span(weights)))};
  const detail::DriverRun run = detail::run_driver(views, opt, f, rec);
  const MidasResult& r = run.result;
  return {FeasibilityTable::from_cells(opt.k, rec.width - 1, run.hits()),
          r.vtime, r.wall_s, r.total_stats, r.vclocks, r.resumed_from_round,
          r.kernel};
}

/// Distributed scan feasibility over a (graph, partition) pair.
template <gf::GaloisField F>
MidasScanResult midas_scan(const graph::Graph& g,
                           const partition::Partition& part,
                           const std::vector<std::uint32_t>& weights,
                           const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  return midas_scan_views(partition::build_part_views(g, part), weights, opt,
                          f);
}

/// Distributed Graph Motif detection over pre-built part views: the
/// constrained sieve of core/motif.hpp on the scan recurrence at weight
/// width 1. `colors` is indexed by *global* vertex id; `opt.k` must equal
/// `motif.size()`. Answers are bit-identical to detect_motif_seq for the
/// same seed.
template <gf::GaloisField F>
MidasResult midas_motif_views(const std::vector<partition::PartView>& views,
                              const std::vector<std::uint32_t>& colors,
                              const std::vector<std::uint32_t>& motif,
                              const MidasOptions& opt, const F& f = F{}) {
  detail::require_vertex_values(views, colors.size(),
                                "one color per vertex required");
  detail::require_options(
      opt.k == static_cast<int>(motif.size()),
      "opt.k must equal the motif size (one shade per motif slot)");
  const ShadePlan plan = make_shade_plan(colors, motif);
  // Fingerprinted: a snapshot must not resume on other colors or motif.
  std::vector<std::uint64_t> cw{static_cast<std::uint64_t>(colors.size())};
  cw.insert(cw.end(), colors.begin(), colors.end());
  cw.insert(cw.end(), motif.begin(), motif.end());
  const detail::LayeredRec<F> rec{
      f, opt, nullptr, &plan, runtime::fnv1a(std::as_bytes(std::span(cw)))};
  return detail::run_driver(views, opt, f, rec).result;
}

/// Distributed Graph Motif detection for a (graph, partition) pair.
template <gf::GaloisField F>
MidasResult midas_motif(const graph::Graph& g,
                        const partition::Partition& part,
                        const std::vector<std::uint32_t>& colors,
                        const std::vector<std::uint32_t>& motif,
                        const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  return midas_motif_views(partition::build_part_views(g, part), colors,
                           motif, opt, f);
}

/// Distributed maximum-weight k-path: the path DP with a weight dimension
/// (paper Problem 3 part 2). Messages carry the whole weight axis, like
/// the scan engine.
template <gf::GaloisField F>
MidasWeightedResult midas_weighted_kpath(
    const graph::Graph& g, const partition::Partition& part,
    const std::vector<std::uint32_t>& weights, const MidasOptions& opt,
    const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  detail::require_options(weights.size() == g.num_vertices(),
                          "one weight per vertex required");
  const auto views = partition::build_part_views(g, part);
  const detail::PathRec<F> rec(views, opt, f, &weights);
  const detail::DriverRun run = detail::run_driver(views, opt, f, rec);
  const MidasResult& r = run.result;
  MidasWeightedResult result{std::vector<bool>(rec.width, false), {},
                             r.vtime, r.wall_s, r.total_stats,
                             r.resumed_from_round, r.kernel};
  const auto hits = run.hits();
  for (std::uint32_t z = 0; z < rec.width; ++z)
    if (hits[z] != 0) {
      result.feasible_weight[z] = true;
      result.max_weight = z;
    }
  return result;
}

}  // namespace midas::core
