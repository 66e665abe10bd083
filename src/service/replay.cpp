#include "service/replay.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace midas::service {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("workload line " + std::to_string(line_no) +
                           ": " + what);
}

/// Parse all of `text` into `out`; returns "" on success, else what was
/// wrong. Covers every field type the QuerySpec table holds.
template <typename T>
std::string parse_value(std::string_view text, T& out) {
  const std::string got = ", got '" + std::string(text) + "'";
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return "expected 0 or 1" + got;
    out = text == "1";
  } else if constexpr (NamedEnum<T>) {
    const auto e = enum_from_name<T>(text);
    if (!e) return "expected " + enum_choices<T>() + got;
    out = *e;
  } else if constexpr (std::is_arithmetic_v<T>) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec == std::errc::result_out_of_range) return "out of range" + got;
    if (ec != std::errc{} || ptr != end) return "expected a number" + got;
  } else {
    return "derived from the query's seed, k and palette; not settable";
  }
  return {};
}

/// One `query` line: the spec plus the replay-only keys.
struct QueryLine {
  QuerySpec q;
  std::int64_t repeat = 1;
  std::uint32_t palette = 3;
};

QueryLine parse_query(std::istringstream& in, std::size_t line_no) {
  QueryLine out;
  std::vector<std::string> seen;
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      fail(line_no, "expected key=value, got '" + tok + "'");
    const std::string key = tok.substr(0, eq);
    const std::string_view text = std::string_view(tok).substr(eq + 1);
    if (std::find(seen.begin(), seen.end(), key) != seen.end())
      fail(line_no, key + ": repeated key");
    seen.push_back(key);
    std::string err = "unknown query key";
    if (key == "repeat")
      err = parse_value(text, out.repeat);
    else if (key == "palette")
      err = parse_value(text, out.palette);
    else
      for_each_field(out.q, [&](const char* k, auto& v, FieldKind) {
        if (key == k) err = parse_value(text, v);
      });
    if (!err.empty()) fail(line_no, key + ": " + err);
  }
  if (out.repeat < 1) fail(line_no, "repeat: must be >= 1");
  if (out.palette < 1) fail(line_no, "palette: must be >= 1");
  return out;
}

GraphSpec parse_graph(const std::string& name, std::istringstream& in,
                      std::size_t line_no) {
  GraphSpec spec;
  spec.name = name;
  if (!(in >> spec.kind)) fail(line_no, "graph needs a generator kind");
  if (spec.kind == "gnp") {
    if (!(in >> spec.n >> spec.fparam >> spec.seed))
      fail(line_no, "gnp needs <n> <p> <seed>");
  } else if (spec.kind == "ba") {
    spec.attach = 2;
    if (!(in >> spec.n >> spec.attach >> spec.seed))
      fail(line_no, "ba needs <n> <attach> <seed>");
  } else if (spec.kind == "road") {
    spec.fparam = 0.9;
    if (!(in >> spec.n >> spec.fparam >> spec.seed))
      fail(line_no, "road needs <n> <keep> <seed>");
  } else {
    fail(line_no, "unknown graph kind '" + spec.kind + "'");
  }
  return spec;
}

void digest(LaneReport& lane, std::vector<double>& latencies) {
  if (latencies.empty()) return;
  lane.p50_s = percentile(latencies, 50.0);
  lane.p99_s = percentile(latencies, 99.0);
  lane.mean_s = mean(latencies);
}

}  // namespace

void derive_payload(QuerySpec& q, std::uint32_t n, std::uint32_t palette) {
  // A k outside [1, kMaxK] fails admission; clamping here only keeps a
  // bad k from sizing the payload.
  const int k = std::clamp(q.k, 0, core::kMaxK);
  if (q.type == QueryType::kTree) {
    q.tree_edges.clear();
    for (int i = 0; i + 1 < k; ++i)
      q.tree_edges.emplace_back(static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(i + 1));
  }
  if (q.type == QueryType::kScan) {
    Xoshiro256 rng(q.seed ^ 0x5CA1AB1EULL);
    q.weights.resize(n);
    for (auto& x : q.weights) x = static_cast<std::uint32_t>(rng() % 5);
  }
  if (q.type == QueryType::kMotif) {
    Xoshiro256 crng(q.seed ^ 0xC0104C5ULL);
    q.colors.resize(n);
    for (auto& x : q.colors) x = static_cast<std::uint32_t>(crng() % palette);
    // Sample the multiset from the coloring itself, so it is always
    // color-feasible and the answer hinges on connectivity/multiplicity.
    Xoshiro256 mrng(q.seed ^ 0x307216ULL);
    q.motif.resize(n == 0 ? 0 : static_cast<std::size_t>(k));
    for (auto& x : q.motif) x = q.colors[mrng() % n];
  }
}

graph::Graph build_graph(const GraphSpec& spec) {
  Xoshiro256 rng(spec.seed);
  if (spec.kind == "gnp")
    return graph::erdos_renyi_gnp(spec.n, spec.fparam, rng);
  if (spec.kind == "ba") return graph::barabasi_albert(spec.n, spec.attach, rng);
  if (spec.kind == "road") return graph::road_network(spec.n, spec.fparam, rng);
  throw std::runtime_error("unknown graph kind '" + spec.kind + "'");
}

Workload parse_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload: " + path);

  Workload wl;
  std::unordered_map<std::string, std::uint32_t> graph_sizes;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    if (word == "graph") {
      std::string name;
      if (!(ls >> name)) fail(line_no, "graph needs a name");
      GraphSpec spec = parse_graph(name, ls, line_no);
      graph_sizes[name] = spec.n;
      wl.graphs.push_back(std::move(spec));
    } else if (word == "query") {
      auto [q, repeat, palette] = parse_query(ls, line_no);
      auto sz = graph_sizes.find(q.graph);
      if (sz == graph_sizes.end())
        fail(line_no, "graph: no graph line declares '" + q.graph + "'");
      // Repeats take seed, seed+1, ...: cache traffic, not dedup.
      for (std::int64_t r = 0; r < repeat; ++r, ++q.seed) {
        derive_payload(q, sz->second, palette);
        wl.queries.push_back(q);
      }
    } else {
      fail(line_no, "unknown directive '" + word + "'");
    }
  }
  return wl;
}

ReplayReport run_replay(const std::string& workload_path,
                        const ReplayOptions& ropt) {
  Workload wl = parse_workload(workload_path);

  ServiceOptions sopt;
  sopt.workers = ropt.workers;
  sopt.cores = ropt.cores;
  sopt.queue_capacity = ropt.queue_capacity;
  sopt.cache_capacity = ropt.cache_capacity;
  sopt.cache_enabled = ropt.cache_enabled;
  sopt.retry = ropt.retry;
  sopt.hedge_multiplier = ropt.hedge_multiplier;
  sopt.breaker = ropt.breaker;
  sopt.verify = ropt.verify;
  sopt.audit_rate = ropt.audit_rate;
  sopt.chaos = ropt.chaos;
  DetectionService svc(sopt);

  // The whole file parsed up front (parse_workload), so a malformed line
  // fails before any query runs; graphs materialize here.
  for (const GraphSpec& gs : wl.graphs) svc.add_graph(gs.name, build_graph(gs));
  if (ropt.certify)
    for (QuerySpec& q : wl.queries) q.certify = true;

  // Replay. Submit as fast as admission allows; back off briefly on
  // overload so the full workload always completes.
  ReplayReport rep;
  std::vector<std::pair<Lane, std::shared_future<QueryResult>>> futures;
  futures.reserve(wl.queries.size());
  const auto t0 = Clock::now();
  for (const QuerySpec& q : wl.queries) {
    for (;;) {
      try {
        futures.emplace_back(q.lane, svc.submit(q));
        break;
      } catch (const ServiceOverloadError&) {
        ++rep.overload_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } catch (const DeadlineInfeasibleError&) {
        // The deadline cannot be met behind the current queue: drop the
        // query now (that is the point of shedding) and move on.
        ++rep.shed;
        break;
      } catch (const CircuitOpenError&) {
        // The graph's artifact path is known bad; skip instead of
        // hammering the breaker.
        ++rep.breaker_fastfail;
        break;
      }
    }
  }
  svc.drain();
  rep.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> lat_interactive, lat_batch;
  std::uint64_t rounds_sum[2] = {0, 0};
  for (auto& [lane, fut] : futures) {
    LaneReport& lr =
        lane == Lane::kInteractive ? rep.interactive : rep.batch;
    ++lr.submitted;
    try {
      const QueryResult& r = fut.get();
      ++lr.ok;
      (lane == Lane::kInteractive ? lat_interactive : lat_batch)
          .push_back(r.total_s);
      rounds_sum[lane == Lane::kInteractive ? 0 : 1] +=
          static_cast<std::uint64_t>(r.rounds_run + r.reamp_rounds);
      lr.worst_achieved_eps =
          std::max(lr.worst_achieved_eps, r.achieved_epsilon);
      if (r.certified) ++lr.certified;
    } catch (const DeadlineExceededError&) {
      ++lr.deadline_exceeded;
    } catch (const std::exception&) {
      ++lr.failed;
    }
  }
  digest(rep.interactive, lat_interactive);
  digest(rep.batch, lat_batch);
  if (rep.interactive.ok > 0)
    rep.interactive.mean_rounds = static_cast<double>(rounds_sum[0]) /
                                  static_cast<double>(rep.interactive.ok);
  if (rep.batch.ok > 0)
    rep.batch.mean_rounds = static_cast<double>(rounds_sum[1]) /
                            static_cast<double>(rep.batch.ok);
  const std::uint64_t completed = rep.interactive.ok + rep.batch.ok;
  rep.qps = rep.wall_s > 0.0 ? static_cast<double>(completed) / rep.wall_s
                             : 0.0;
  const ServiceStats stats = svc.stats();
  rep.retried = stats.retried;
  rep.hedges = stats.hedges;
  rep.worker_restarts = stats.worker_restarts;
  rep.chaos_engine_faults = stats.chaos_engine_faults;
  rep.chaos_build_failures = stats.chaos_build_failures;
  rep.chaos_artifact_flips = stats.chaos_artifact_flips;
  rep.certified = stats.certified;
  rep.cert_failures = stats.cert_failures;
  rep.reamplified = stats.reamplified;
  rep.audits_scheduled = stats.audits_scheduled;
  rep.audit_mismatches = stats.audit_mismatches;
  rep.audit_missed_yes = stats.audit_missed_yes;
  rep.integrity_quarantines = stats.integrity_quarantines;
  rep.workers = stats.workers;
  rep.cores = stats.cores;
  rep.ranks_per_worker = stats.ranks_per_worker;
  rep.pool_reuse = stats.pool_reuse;
  rep.steals = stats.steals;
  rep.cache = svc.cache().stats();
  return rep;
}

void print_report(std::ostream& os, const ReplayReport& r) {
  auto lane_row = [&os](const char* name, const LaneReport& l) {
    os << "  " << std::left << std::setw(12) << name << std::right
       << std::setw(8) << l.submitted << std::setw(8) << l.ok
       << std::setw(10) << l.deadline_exceeded << std::setw(8) << l.failed
       << std::setw(10) << l.failed_transport
       << std::setw(12) << std::fixed << std::setprecision(3)
       << l.p50_s * 1e3 << std::setw(12) << l.p99_s * 1e3 << std::setw(12)
       << l.mean_s * 1e3 << std::setw(9) << std::setprecision(1)
       << l.mean_rounds << std::setw(12) << std::scientific
       << std::setprecision(2) << l.worst_achieved_eps << std::defaultfloat
       << "\n";
  };
  os << "replay: " << r.wall_s << " s wall, " << r.qps << " q/s, "
     << r.overload_retries << " overload retries\n";
  os << "  budget: " << r.workers << " workers x " << r.ranks_per_worker
     << " ranks on " << r.cores << " cores; " << r.pool_reuse
     << " pooled gang reuses, " << r.steals << " shard steals\n";
  os << "  " << std::left << std::setw(12) << "lane" << std::right
     << std::setw(8) << "subm" << std::setw(8) << "ok" << std::setw(10)
     << "deadline" << std::setw(8) << "failed" << std::setw(10)
     << "transport" << std::setw(12)
     << "p50(ms)" << std::setw(12) << "p99(ms)" << std::setw(12)
     << "mean(ms)" << std::setw(9) << "rounds" << std::setw(12)
     << "worst-eps" << "\n";
  lane_row("interactive", r.interactive);
  lane_row("batch", r.batch);
  os << "  cache: " << r.cache.hits << " hits, " << r.cache.misses
     << " misses, " << r.cache.builds << " builds, " << r.cache.evictions
     << " evictions\n";
  os << "  resilience: " << r.retried << " retries, " << r.hedges
     << " hedges, " << r.worker_restarts << " worker restarts, " << r.shed
     << " shed, " << r.breaker_fastfail << " breaker fast-fails\n";
  os << "  integrity: " << r.certified << " certified, " << r.cert_failures
     << " cert failures, " << r.reamplified << " reamplified, "
     << r.audits_scheduled << " audits (" << r.audit_mismatches
     << " mismatches, " << r.audit_missed_yes << " missed-yes), "
     << r.cache.verifications << " verifications, " << r.cache.corruptions
     << " corruptions, " << r.integrity_quarantines << " quarantines\n";
  if (r.chaos_engine_faults > 0 || r.chaos_build_failures > 0 ||
      r.chaos_artifact_flips > 0)
    os << "  chaos: " << r.chaos_engine_faults << " engine faults, "
       << r.chaos_build_failures << " forced build failures, "
       << r.chaos_artifact_flips << " artifact bit-flips\n";
}

}  // namespace midas::service
