// engine-large: direct distributed core calls, one at a time, on the
// paper's own regime (k up to 12 on a 4000-vertex graph, 4 ranks). The
// service and the wire are bypassed, so only graph/partition (set-up) and
// gf/core/runtime (per query) are measured here. The end-to-end figures
// are taken over the cycles in which the host stole the least CPU time
// (measure_quiet).
#include <cmath>
#include <cstdio>
#include <string>

#include "direct.hpp"
#include "specs.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = midas::service;
using midas::Timer;

namespace {

struct Done {
  svc::QuerySpec spec;
  svc::QueryResult qr;
  double ms = 0.0;
};

/// One cycle of the four query types: its wall time and the share of
/// the machine's CPU time the host stole meanwhile.
struct Cycle {
  double s = 0.0;
  double steal = 0.0;
};

/// Run whole cycles of the four query types until `seconds` have passed;
/// with `extend`, go on until quiet cycles (steal share at most
/// kQuietStealShare) have taken half of `seconds`, for at most
/// kMaxWindowFactor x `seconds`. Returns the wall time actually taken.
double run_window(const Prepared& p, std::uint64_t seed, std::uint64_t& next,
                  double seconds, bool extend, std::vector<Done>& done,
                  std::vector<Cycle>& cycles, Spans* spans) {
  Timer window, cycle;
  CpuTicks mark = read_cpu_ticks();
  double quiet_s = 0.0;
  for (;;) {
    if (next % kNumTypes == 0) {
      const double t = window.elapsed_s();
      if (t >= seconds &&
          (!extend || quiet_s >= seconds / 2 ||
           t >= seconds * kMaxWindowFactor))
        break;
    }
    Done d;
    d.spec = engine_large_query(seed, next++);
    {
      Spans::Scope s(spans, "core.call");
      Timer t;
      d.qr = run_views(d.spec, p);
      d.ms = t.elapsed_ms();
    }
    done.push_back(std::move(d));
    if (next % kNumTypes == 0) {
      const CpuTicks now = read_cpu_ticks();
      cycles.push_back({cycle.elapsed_s(), steal_share(mark, now)});
      if (cycles.back().steal <= kQuietStealShare) quiet_s += cycles.back().s;
      mark = now;
      cycle.reset();
    }
  }
  return window.elapsed_s();
}

/// The four ranks wait on one another at every phase, so a host that
/// runs other guests on any of the machine's CPUs slows a query by more
/// than the CPU time it took. qps and latency_p50_ms are measured over
/// the quiet cycles (quiet_mask); `done` holds whole cycles in order.
void measure_quiet(const std::vector<Done>& done,
                   const std::vector<Cycle>& cycles, double wall, EndToEnd& e,
                   Outcome& out) {
  std::vector<double> shares;
  for (const auto& c : cycles) shares.push_back(c.steal);
  const std::vector<bool> quiet = quiet_mask(shares);
  double kept_s = 0.0;
  std::size_t kept = 0;
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    if (!quiet[c]) continue;
    ++kept;
    kept_s += cycles[c].s;
    for (std::size_t i = c * kNumTypes; i < (c + 1) * kNumTypes; ++i)
      e.latency_ms.push_back(done[i].ms);
  }
  std::vector<double> all_ms;
  for (const auto& d : done) all_ms.push_back(d.ms);
  double stolen = 0.0;
  for (const auto& c : cycles) stolen += c.steal * c.s;
  e.qps = static_cast<double>(kept * kNumTypes) / kept_s;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "host steal %.2f%% of CPU time over the window; qps and "
                "latency_p50_ms over %zu of its %zu cycles (over all: qps "
                "%.6g, latency_p50_ms %.6g)",
                100.0 * stolen / wall, kept, cycles.size(),
                static_cast<double>(done.size()) / wall, median(all_ms));
  out.notes.emplace_back(buf);
}

}  // namespace

Outcome run_engine_large(const RunArgs& args) {
  Outcome out;
  Spans spans;

  // -- set-up: graph + partition/views, repeated; then one warm-up query
  // per type (one graph, one n1). The warm-up runs once: it is four of the
  // very engine calls the window measures, seconds each.
  std::vector<double> build_s;
  Prepared p;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Timer t;
    midas::graph::Graph g;
    {
      Spans::Scope s(&spans, "graph.build");
      g = engine_large_graph(args.seed);
    }
    Spans::Scope s(&spans, "partition.build");
    p = prepare(std::move(g), 2);
    build_s.push_back(t.elapsed_s());
  }
  Timer warm;
  for (int t = 0; t < kNumTypes; ++t) {
    Spans::Scope s(&spans, "core.warmup");
    (void)run_views(engine_large_query(args.seed ^ 0x3A93ULL,
                                       static_cast<std::uint64_t>(t)),
                    p);
  }
  const double setup_s = median(build_s) + warm.elapsed_s();

  // -- timed window(s). The traced run measures half the window untraced
  // and half traced, so the tracing overhead is measured on the same set-up.
  std::vector<Done> done;
  std::uint64_t next = 0;
  PerLayer pl;
  std::vector<Cycle> cycles;
  double wall = 0.0;
  if (!args.trace) {
    wall = run_window(p, args.seed, next, args.seconds, true, done, cycles,
                      nullptr);
  } else {
    const double plain = run_window(p, args.seed, next, args.seconds / 2,
                                    false, done, cycles, nullptr);
    const std::size_t plain_n = done.size();
    trace_begin();
    const double traced = run_window(p, args.seed, next, args.seconds / 2,
                                     false, done, cycles, &spans);
    const TraceTotals tt = trace_end();
    const double traced_n = static_cast<double>(done.size() - plain_n);
    pl.trace_overhead_frac =
        1.0 - (traced_n / traced) / (static_cast<double>(plain_n) / plain);
    fill_from_trace(pl, tt, traced_n, traced_n * 4);

    // Per-type core time and work rate from the untraced half.
    std::vector<double> by_type[kNumTypes];
    double vtime_ms = 0.0;
    for (std::size_t i = 0; i < plain_n; ++i) {
      by_type[i % kNumTypes].push_back(done[i].ms);
      vtime_ms += done[i].qr.vtime * 1e3;
    }
    for (int t = 0; t < kNumTypes; ++t) pl.core_ms[t] = median(by_type[t]);
    pl.core_vtime_ms = vtime_ms / static_cast<double>(plain_n);
    const int path_k = engine_large_query(args.seed, kPathIdx).k;
    const double iter_vertex =  // 2^k * n for one k-path round
        std::ldexp(static_cast<double>(kLargeN), path_k);
    pl.core_ns_per_iter_vertex = pl.core_ms[kPathIdx] * 1e6 * 4 / iter_vertex;
    pl.graph_build_ms = median(spans.durations_ms("graph.build"));
    pl.partition_build_ms = median(spans.durations_ms("partition.build"));
    pl.boundary_frac = boundary_frac(p);

    // Kernel-choice ledger: each type once more under each kernel, and
    // the sequential single-threaded k-path baseline.
    for (int t = 0; t < kNumTypes; ++t) {
      svc::QuerySpec q = engine_large_query(args.seed ^ 0x4E1ULL,
                                            static_cast<std::uint64_t>(t));
      double ms[3] = {};
      svc::QueryResult ans[3];
      const midas::core::Kernel kernels[3] = {midas::core::Kernel::kAuto,
                                              midas::core::Kernel::kScalar,
                                              midas::core::Kernel::kBitsliced};
      for (int k = 0; k < 3; ++k) {
        q.kernel = kernels[k];
        Spans::Scope s(&spans, "core.kernel_ledger");
        Timer tk;
        ans[k] = run_views(q, p);
        ms[k] = tk.elapsed_ms();
      }
      pl.scalar_over_auto[t] = ms[1] / ms[0];
      pl.bitsliced_over_auto[t] = ms[2] / ms[0];
      out.attempted += 2;
      for (int k = 1; k < 3; ++k)
        if (!same_answer(ans[0], ans[k])) {
          ++out.failed;
          out.correct = false;
          out.notes.emplace_back("kernel mismatch on query type " +
                                 std::to_string(t));
        }
    }
    {
      Spans::Scope s(&spans, "gf.seq_kpath");
      pl.gf_seq_ns_per_iter_vertex =
          seq_kpath_seconds(p.g, path_k, args.seed) * 1e9 / iter_vertex;
    }
    // engine-large has one lane, batch: share of queries under its limit.
    std::size_t in_slo = 0;
    for (const auto& d : done) in_slo += d.ms <= kBatchLimitMs ? 1 : 0;
    pl.slo_frac = static_cast<double>(in_slo) / static_cast<double>(done.size());
  }

  // -- answer check, outside the timed window: every answer bit-for-bit
  // against an independent implementation — the sequential detector for
  // path/tree, the distributed scalar kernel for scan/motif (the cheapest
  // of the independent ones for each type).
  std::uint64_t digest = 0;
  for (const auto& d : done) {
    Spans::Scope s(&spans, "core.recheck");
    svc::QuerySpec scalar = d.spec;
    scalar.kernel = midas::core::Kernel::kScalar;
    const bool seq_cheap = d.spec.type == svc::QueryType::kPath ||
                           d.spec.type == svc::QueryType::kTree;
    const svc::QueryResult seq =
        seq_cheap ? run_seq(d.spec, p.g) : run_views(scalar, p);
    digest += answer_digest(d.spec, d.qr);
    ++out.attempted;
    if (!same_answer(d.qr, seq)) {
      ++out.failed;
      out.correct = false;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "answers_digest=%016llx, %zu queries rechecked",
                static_cast<unsigned long long>(digest), done.size());
  out.notes.emplace_back(buf);

  if (args.trace) {
    out.spans = std::move(spans);
    report_per_layer(out, pl);
  } else {
    EndToEnd e;
    e.setup_s = setup_s;
    e.rss_mb = peak_rss_mb();
    measure_quiet(done, cycles, wall, e, out);
    report_end_to_end(out, e);
  }
  return out;
}

}  // namespace perfbench
