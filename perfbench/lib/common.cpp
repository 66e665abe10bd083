#include <sys/resource.h>

#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_end_to_end(Outcome& out, const EndToEnd& e) {
  const Tail t = tail(e.latency_ms);
  Ledger& l = out.ledger;
  l.add("setup_s", "s", e.setup_s);
  l.add("qps", "queries/s", e.qps);
  l.add("latency_p50_ms", "ms", median(e.latency_ms));
  l.add("rss_mb", "MiB", e.rss_mb);
  // The tail is printed, not gated: with 10 samples beyond it, its
  // run-to-run spread on the wire workloads exceeds any usable bound.
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms = %.6g ms, p%.2f of %zu samples (%zu beyond it)",
                t.value, t.pct, t.samples, t.beyond);
  out.notes.emplace_back(buf);
}

void report_per_layer(Outcome& out, const PerLayer& p) {
  static const char* const kType[kNumTypes] = {"path", "tree", "scan",
                                               "motif"};
  Ledger& l = out.ledger;
  l.add("graph.build_ms", "ms", p.graph_build_ms);
  l.add("partition.build_ms", "ms", p.partition_build_ms);
  l.add("partition.boundary_frac", "ratio", p.boundary_frac);
  l.add("gf.seq_ns_per_iter_vertex", "ns", p.gf_seq_ns_per_iter_vertex);
  l.add("gf.ops_per_query", "ops", p.gf_ops_per_query);
  l.add("gf.ns_per_op", "ns", p.gf_ns_per_op);
  for (int t = 0; t < kNumTypes; ++t)
    l.add(std::string("core.") + kType[t] + "_ms", "ms", p.core_ms[t]);
  l.add("core.ns_per_iter_vertex", "ns", p.core_ns_per_iter_vertex);
  l.add("core.vtime_ms", "ms", p.core_vtime_ms);
  for (int t = 0; t < kNumTypes; ++t)
    l.add(std::string("core.scalar_over_auto.") + kType[t], "ratio",
          p.scalar_over_auto[t]);
  for (int t = 0; t < kNumTypes; ++t)
    l.add(std::string("core.bitsliced_over_auto.") + kType[t], "ratio",
          p.bitsliced_over_auto[t]);
  l.add("runtime.halo_bytes_per_query", "bytes", p.halo_bytes_per_query);
  l.add("runtime.halo_messages_per_query", "count",
        p.halo_messages_per_query);
  l.add("runtime.phase_self_ms", "ms", p.phase_self_ms);
  l.add("runtime.halo_ms", "ms", p.halo_ms);
  l.add("runtime.collective_wait_ms", "ms", p.collective_wait_ms);
  l.add("runtime.pool_reuse_frac", "ratio", p.pool_reuse_frac);
  l.add("service.queue_ms.p50", "ms", p.queue_ms_p50);
  l.add("service.queue_ms.tail", "ms", p.queue_ms_tail);
  l.add("service.exec_ms.p50", "ms", p.exec_ms_p50);
  l.add("service.overhead_ms.p50", "ms", p.overhead_ms_p50);
  l.add("service.busy_frac", "ratio", p.busy_frac);
  l.add("service.workers", "count", p.workers);
  l.add("service.ranks_per_worker", "count", p.ranks_per_worker);
  l.add("service.cache.hit_ratio", "ratio", p.cache_hit_ratio);
  l.add("service.cache.builds_per_query", "count", p.cache_builds_per_query);
  l.add("service.cache.evictions", "count", p.cache_evictions);
  l.add("service.deduped_frac", "ratio", p.deduped_frac);
  l.add("service.steals_per_query", "count", p.steals_per_query);
  l.add("service.admission_retries_per_query", "count",
        p.admission_retries_per_query);
  l.add("service.certify_ms", "ms", p.certify_ms);
  l.add("net.wire_ms.p50", "ms", p.wire_ms_p50);
  l.add("net.rx_bytes_per_query", "bytes", p.rx_bytes_per_query);
  l.add("net.tx_bytes_per_query", "bytes", p.tx_bytes_per_query);
  l.add("net.frames_per_query", "count", p.frames_per_query);
  l.add("net.encode_us", "us", p.encode_us);
  l.add("net.decode_us", "us", p.decode_us);
  l.add("bench.late_ms.max", "ms", p.late_ms_max);
  l.add("bench.trace_overhead_frac", "ratio", p.trace_overhead_frac);
  l.add("lane.interactive_p50_ms", "ms", p.interactive_p50_ms);
  l.add("lane.interactive_tail_ms", "ms", p.interactive_tail_ms);
  l.add("lane.slo_frac", "ratio", p.slo_frac);
}

void trace_begin() {
  auto& tr = midas::runtime::tracer();
  tr.reset();
  tr.enable();
}

TraceTotals trace_end() {
  auto& tr = midas::runtime::tracer();
  tr.disable();
  TraceTotals t;
  const auto snap = tr.metrics().snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  t.gf_ops = counter("gf.ops");
  t.halo_bytes = counter("halo.bytes");
  t.halo_messages = counter("halo.messages");
  t.self = self_times(tr.events());
  tr.reset();
  return t;
}

void fill_from_trace(PerLayer& p, const TraceTotals& t, double queries,
                     double rank_queries) {
  if (queries <= 0 || rank_queries <= 0) return;
  p.gf_ops_per_query = static_cast<double>(t.gf_ops) / queries;
  p.gf_ns_per_op = t.gf_ops == 0 ? 0.0
                                 : static_cast<double>(t.self.phase_ns) /
                                       static_cast<double>(t.gf_ops);
  p.halo_bytes_per_query = static_cast<double>(t.halo_bytes) / queries;
  p.halo_messages_per_query = static_cast<double>(t.halo_messages) / queries;
  // Per rank per query: the self time a single rank spends in each part.
  p.phase_self_ms = static_cast<double>(t.self.phase_ns) * 1e-6 / rank_queries;
  p.halo_ms = static_cast<double>(t.self.halo_ns) * 1e-6 / rank_queries;
  p.collective_wait_ms =
      static_cast<double>(t.self.collective_ns) * 1e-6 / rank_queries;
}

}  // namespace perfbench
