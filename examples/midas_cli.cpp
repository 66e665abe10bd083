// midas_cli — run any MIDAS detection on an edge-list file (or a built-in
// generator) from the command line.
//
// Usage:
//   midas_cli path      --k=8 [--witness] [common flags]
//   midas_cli dipath    --k=8 --directed-edges=...   (directed k-path)
//   midas_cli tree      --k=8 --template=path|star|random [--witness]
//   midas_cli maxweight --k=6 --weights=FILE|random
//   midas_cli motif     --k=4 --palette=3 [--colors=FILE|random]
//                       [--motif=c0,c1,...] [--witness]
//                       constrained (Graph Motif) detection: is there a
//                       connected vertex set whose color multiset equals
//                       the query? --colors=FILE reads one color id per
//                       vertex; random draws from [0, palette). --motif
//                       defaults to k colors sampled from the coloring
//                       (always color-feasible). Distributed when
//                       --ranks > 1 (docs/MOTIF.md)
//   midas_cli scan      --k=5 --weights=FILE|random
//                       [--stat=kulldorff|ebp|mean|bj] [--witness]
//   midas_cli serve     --replay=WORKLOAD [--workers=W] [--cores=C]
//                       [--queue=C] [--cache=N|--no-cache]
//                       [--retries=R] [--hedge=M] [--breaker-threshold=F]
//                       [--certify] [--audit-rate=P]
//                       [--verify-artifacts=off|sampled|full]
//                       [--fault-query-kill=P] [--fault-query-corrupt=P]
//                       [--fault-build-fail=P] [--fault-worker-kill=P]
//                       [--fault-artifact-flip=P] [--fault-seed=S]
//                       replay a workload file through the batched
//                       DetectionService and print the per-lane
//                       latency/throughput report (docs/SERVICE.md).
//                       --workers=0 (default) sizes the worker pool from
//                       the CPU budget (--cores, default the machine's
//                       hardware threads): workers x ranks-per-worker ~
//                       cores, each worker reusing a persistent rank pool.
//                       --retries bounds execution attempts per query,
//                       --hedge=M launches a racing attempt for runs
//                       straggling past M x the lane's rolling p99, and
//                       the --fault-* flags arm the seeded service chaos
//                       harness (docs/RESILIENCE.md §7).
//                       --certify forces witness-certified positives on
//                       every query, --audit-rate samples settled answers
//                       for background re-execution under the alternate
//                       kernel, --verify-artifacts checks cached-artifact
//                       checksums on read, and --fault-artifact-flip arms
//                       silent in-memory artifact corruption
//                       (docs/INTEGRITY.md)
//   midas_cli serve     --listen=HOST:PORT [--graphs=WORKLOAD]
//                       [--max-conns=N] [--max-inflight=N]
//                       [--quota-interactive=N] [--quota-batch=N]
//                       [service flags as above]
//                       serve the DetectionService over the binary RPC
//                       protocol (docs/NET.md) instead of replaying a
//                       file. --graphs preloads the graph recipes of a
//                       workload file; clients can also register graphs
//                       over the wire. PORT 0 binds an ephemeral port (the
//                       chosen one is printed). SIGINT/SIGTERM shut down
//                       cleanly and print the wire-level stats.
//   midas_cli query     --connect=HOST:PORT [--register=WORKLOAD]
//                       [--ping] [--tenant=T] [--graph=NAME
//                       --type=path|tree|scan|motif --k=K
//                       --lane=interactive|batch --kernel=... --l=L
//                       --epsilon=E --seed=S --rounds=R --ranks=N --n1=P
//                       --n2=B --timeout=T --certify --n=V --palette=C]
//                       talk to a running `serve --listen`: optionally
//                       register a workload's graphs, then run one query
//                       and print the answer (witness and achieved-eps
//                       included). Scan and motif payloads derive as in
//                       workloads, from --seed, --n (the graph's vertex
//                       count) and --palette. An unknown --type, --lane
//                       or --kernel name exits 2.
//
// Common flags:
//   --graph=FILE           edge list ("u v" per line); or
//   --gen=er|ba|road --n=N seeded generator (default er, n=1000)
//   --seed=S  --epsilon=E  --ranks=N --n1=P --n2=B  (distributed run when
//   --ranks > 1; sequential otherwise)
//   --kernel=auto|scalar|bitsliced  inner-loop engine for path/tree/scan;
//   auto (the default) picks the 64-lane bit-sliced kernels whenever the
//   field is narrow enough (l <= 16) and scalar otherwise — results are
//   bit-identical either way
//
// Fault injection (distributed `path` and `motif` runs; see
// docs/RESILIENCE.md):
//   --fault-kill=RANK@EVENT  kill a world rank at its Nth comm event
//                            (repeatable via comma list: 1@40,3@12)
//   --fault-drop=P --fault-delay=P --fault-corrupt=P
//                            per-attempt transient fault probabilities on
//                            every point-to-point channel
//   --fault-seed=S           seed for the deterministic fault schedule
//   --supervise              supervised run_spmd even with no fault plan
//
// Checkpoint/restart & watchdog (distributed `path` and `motif` runs; see
// docs/RESILIENCE.md):
//   --checkpoint-dir=DIR     snapshot round-level state into DIR
//   --checkpoint-every=R     snapshot cadence in completed rounds (default 1)
//   --checkpoint-waves=W     also snapshot every W phase waves inside a
//                            round (clean runs only; 0 = off)
//   --resume                 restore the newest good snapshot from DIR and
//                            continue from it (bit-identical results)
//   --deadline-ms=T          watchdog deadline: flag a phase group lagging
//                            the fastest replica by more than T modeled ms
//   --speculate              with --deadline-ms: re-execute a straggling
//                            group's phases on the fast replicas
//
// Observability (all commands; see docs/OBSERVABILITY.md):
//   --trace-out=FILE         write a Chrome-tracing JSON timeline (load in
//                            Perfetto / chrome://tracing; one lane per rank)
//   --metrics-out=FILE       dump the metrics registry (counters, gauges,
//                            histograms); ".txt" suffix = flat text,
//                            anything else = JSON
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "midas.hpp"

namespace {

using namespace midas;

graph::Graph load_graph(const Args& args, Xoshiro256& rng) {
  if (args.has("graph")) return graph::load_edge_list(args.get("graph", ""));
  const auto n = static_cast<graph::VertexId>(args.get_int("n", 1000));
  const std::string gen = args.get("gen", "er");
  if (gen == "ba") return graph::barabasi_albert(n, 4, rng);
  if (gen == "road") return graph::road_network(n, 0.95, rng);
  const auto m = static_cast<graph::EdgeId>(
      static_cast<double>(n) * std::log(static_cast<double>(n)) / 2);
  return graph::erdos_renyi_gnm(n, m, rng);
}

std::vector<std::uint32_t> load_weights(const Args& args,
                                        graph::VertexId n,
                                        Xoshiro256& rng) {
  const std::string spec = args.get("weights", "random");
  std::vector<std::uint32_t> w(n);
  if (spec == "random") {
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(4));
  } else {
    std::ifstream f(spec);
    MIDAS_REQUIRE(static_cast<bool>(f), "cannot open weights file " + spec);
    for (auto& x : w) {
      long long v = 0;
      MIDAS_REQUIRE(static_cast<bool>(f >> v) && v >= 0,
                    "weights file must contain n non-negative integers");
      x = static_cast<std::uint32_t>(v);
    }
  }
  return w;
}

core::Kernel kernel_option(const Args& args) {
  const auto k =
      service::enum_from_name<core::Kernel>(args.get("kernel", "auto"));
  MIDAS_REQUIRE(k.has_value(), "--kernel must be auto, scalar or bitsliced");
  return *k;
}

/// Read --flag by the service's enum name table, keeping `out` when the
/// flag is absent; false (after a usage message) on an unknown name.
template <typename E>
bool enum_flag(const Args& args, const char* flag, E& out) {
  if (!args.has(flag)) return true;
  const std::string s = args.get(flag, "");
  if (const auto e = service::enum_from_name<E>(s)) {
    out = *e;
    return true;
  }
  std::fprintf(stderr, "--%s expects %s, got %s\n", flag,
               service::enum_choices<E>().c_str(), s.c_str());
  return false;
}

runtime::SpmdOptions fault_options(const Args& args) {
  runtime::SpmdOptions spmd;
  spmd.supervise = args.get_flag("supervise");
  spmd.faults.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", 0x5eed5eedLL));
  std::string kills = args.get("fault-kill", "");
  while (!kills.empty()) {
    const auto comma = kills.find(',');
    const std::string one = kills.substr(0, comma);
    kills = comma == std::string::npos ? "" : kills.substr(comma + 1);
    const auto at = one.find('@');
    MIDAS_REQUIRE(at != std::string::npos,
                  "--fault-kill expects RANK@EVENT, got " + one);
    spmd.faults.kill_at_event(
        std::stoi(one.substr(0, at)),
        static_cast<std::uint64_t>(std::stoll(one.substr(at + 1))));
  }
  const double drop = args.get_double("fault-drop", 0.0);
  const double delay = args.get_double("fault-delay", 0.0);
  const double corrupt = args.get_double("fault-corrupt", 0.0);
  if (drop > 0.0 || delay > 0.0 || corrupt > 0.0) {
    runtime::ChannelFaults c;  // src/dst default to -1: every channel
    c.drop_p = drop;
    c.delay_p = delay;
    c.corrupt_p = corrupt;
    spmd.faults.with_channel(c);
  }
  spmd.watchdog.deadline_s = args.get_double("deadline-ms", -1.0) / 1e3;
  spmd.watchdog.speculate = args.get_flag("speculate");
  return spmd;
}

core::CheckpointConfig checkpoint_options(const Args& args,
                                          const Xoshiro256& rng) {
  core::CheckpointConfig ck;
  ck.dir = args.get("checkpoint-dir", "");
  ck.every_rounds = static_cast<int>(args.get_int("checkpoint-every", 1));
  ck.every_waves =
      static_cast<std::uint64_t>(args.get_int("checkpoint-waves", 0));
  ck.resume = args.get_flag("resume");
  // Persist the CLI's generator position so a restarted invocation could
  // also restore its own random stream from the snapshot.
  const auto st = rng.state();
  ck.rng_state.assign(st.begin(), st.end());
  return ck;
}

/// The header's kernel field for a run over `f`: the sequential
/// detector's kernel below two ranks; a distributed engine resolves its
/// kernel per phase shape and print_distributed names it from the result.
template <typename F>
std::string kernel_field(const Args& args, const F& f) {
  if (args.get_int("ranks", 1) > 1) return "";
  return std::string("   kernel=") + core::kernel_name(f, kernel_option(args));
}

/// Options of a distributed (--ranks > 1) run: detection parameters, rank
/// geometry, kernel, fault plan, watchdog and checkpointing.
core::MidasOptions midas_options(const Args& args, int k,
                                 const Xoshiro256& rng) {
  core::MidasOptions opt;
  opt.k = k;
  opt.epsilon = args.get_double("epsilon", 1e-4);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.n_ranks = static_cast<int>(args.get_int("ranks", 1));
  opt.n1 = static_cast<int>(args.get_int("n1", std::min(opt.n_ranks, 4)));
  opt.n2 = static_cast<std::uint32_t>(args.get_int("n2", 32));
  opt.kernel = kernel_option(args);
  opt.spmd = fault_options(args);
  opt.checkpoint = checkpoint_options(args, rng);
  return opt;
}

/// The answer of a distributed run, with its resume, watchdog and fault
/// reports.
void print_distributed(const core::MidasResult& res,
                       const core::MidasOptions& opt) {
  if (res.resumed_from_round >= 0)
    std::printf("resumed: round %d (snapshot dir %s)\n",
                res.resumed_from_round, opt.checkpoint.dir.c_str());
  std::printf("answer: %s   (N=%d N1=%d N2=%u kernel=%s; modeled %.3f ms, "
              "wall %.0f ms)\n",
              res.found ? "YES" : "no", opt.n_ranks, opt.n1, opt.n2,
              core::kernel_name(res.kernel), res.vtime * 1e3,
              res.wall_s * 1e3);
  const auto& st = res.total_stats;
  if (st.stragglers_flagged > 0)
    std::printf("watchdog: %llu straggler flag(s), %.3f ms modeled lag, "
                "%llu heartbeat(s)\n",
                static_cast<unsigned long long>(st.stragglers_flagged),
                st.t_straggle * 1e3,
                static_cast<unsigned long long>(st.watchdog_heartbeats));
  if (!res.failed_ranks.empty()) {
    std::printf("faults: lost rank(s)");
    for (int r : res.failed_ranks) std::printf(" %d", r);
    std::printf("; survivors failed over (drops=%llu corrupt=%llu "
                "delayed=%llu retransmits=%llu)\n",
                static_cast<unsigned long long>(st.messages_dropped),
                static_cast<unsigned long long>(st.messages_corrupted),
                static_cast<unsigned long long>(st.messages_delayed),
                static_cast<unsigned long long>(st.retransmissions));
  }
}

int run_path(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto g = load_graph(args, rng);
  const int k = static_cast<int>(args.get_int("k", 8));
  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  gf::GF256 f;
  std::printf("graph: n=%u m=%llu   query: %d-path%s l=%d\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), k,
              kernel_field(args, f).c_str(), f.bits());
  Timer t;
  bool found = false;
  if (ranks > 1) {
    const core::MidasOptions opt = midas_options(args, k, rng);
    const auto part = partition::multilevel_partition(g, opt.n1);
    const auto res = core::midas_kpath(g, part, opt, f);
    found = res.found;
    print_distributed(res, opt);
  } else {
    core::DetectOptions opt;
    opt.k = k;
    opt.epsilon = args.get_double("epsilon", 1e-4);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.kernel = kernel_option(args);
    found = core::detect_kpath_seq(g, opt, f).found;
    std::printf("answer: %s   (%.0f ms)\n", found ? "YES" : "no",
                t.elapsed_ms());
  }
  if (found && args.get_flag("witness")) {
    if (const auto path = core::extract_kpath(
            g, k, {.seed = static_cast<std::uint64_t>(
                       args.get_int("seed", 1))})) {
      std::printf("witness:");
      for (auto v : *path) std::printf(" %u", v);
      std::printf("\n");
    }
  }
  return 0;
}

int run_dipath(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto n = static_cast<graph::VertexId>(args.get_int("n", 1000));
  const auto m = static_cast<graph::EdgeId>(
      args.get_int("directed-edges", static_cast<std::int64_t>(n) * 3));
  const auto g = graph::random_digraph(n, m, rng);
  const int k = static_cast<int>(args.get_int("k", 8));
  std::printf("digraph: n=%u m=%llu   query: directed %d-path\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), k);
  core::DetectOptions opt;
  opt.k = k;
  opt.epsilon = args.get_double("epsilon", 1e-4);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  gf::GF256 f;
  Timer t;
  const auto res = core::detect_kpath_directed_seq(g, opt, f);
  std::printf("answer: %s   (%.0f ms)\n", res.found ? "YES" : "no",
              t.elapsed_ms());
  return 0;
}

int run_tree(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto g = load_graph(args, rng);
  const int k = static_cast<int>(args.get_int("k", 6));
  const std::string shape = args.get("template", "random");
  graph::Graph tmpl;
  if (shape == "path") tmpl = graph::path_graph(
      static_cast<graph::VertexId>(k));
  else if (shape == "star") tmpl = graph::star_graph(
      static_cast<graph::VertexId>(k));
  else tmpl = graph::random_tree(static_cast<graph::VertexId>(k), rng);
  core::TreeDecomposition td(tmpl, 0);
  gf::GF256 f;
  std::printf("graph: n=%u m=%llu   query: %s tree template on %d "
              "vertices (%d subtemplates)   kernel=%s l=%d\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              shape.c_str(), k, td.count(),
              core::kernel_name(f, kernel_option(args)), f.bits());
  core::DetectOptions opt;
  opt.k = k;
  opt.epsilon = args.get_double("epsilon", 1e-4);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.kernel = kernel_option(args);
  Timer t;
  const auto res = core::detect_ktree_seq(g, td, opt, f);
  std::printf("answer: %s   (%.0f ms)\n", res.found ? "YES" : "no",
              t.elapsed_ms());
  if (res.found && args.get_flag("witness")) {
    if (const auto mapped = core::extract_tree_embedding(
            g, tmpl, {.seed = opt.seed})) {
      std::printf("embedding (template vertex -> graph vertex):");
      for (std::size_t p = 0; p < mapped->size(); ++p)
        std::printf(" %zu->%u", p, (*mapped)[p]);
      std::printf("\n");
    }
  }
  return 0;
}

int run_maxweight(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto g = load_graph(args, rng);
  const int k = static_cast<int>(args.get_int("k", 6));
  const auto w = load_weights(args, g.num_vertices(), rng);
  core::DetectOptions opt;
  opt.k = k;
  opt.epsilon = args.get_double("epsilon", 1e-4);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  gf::GF256 f;
  Timer t;
  const auto res = core::max_weight_kpath_seq(g, w, k, opt, f);
  if (res.max_weight)
    std::printf("max %d-path weight: %u   (%.0f ms)\n", k, *res.max_weight,
                t.elapsed_ms());
  else
    std::printf("no %d-path found   (%.0f ms)\n", k, t.elapsed_ms());
  return 0;
}

std::vector<std::uint32_t> load_colors(const Args& args, graph::VertexId n,
                                       std::uint32_t palette,
                                       Xoshiro256& rng) {
  const std::string spec = args.get("colors", "random");
  std::vector<std::uint32_t> c(n);
  if (spec == "random") {
    for (auto& x : c) x = static_cast<std::uint32_t>(rng.below(palette));
  } else {
    std::ifstream f(spec);
    MIDAS_REQUIRE(static_cast<bool>(f), "cannot open colors file " + spec);
    for (auto& x : c) {
      long long v = 0;
      MIDAS_REQUIRE(static_cast<bool>(f >> v) && v >= 0,
                    "colors file must contain n non-negative color ids");
      x = static_cast<std::uint32_t>(v);
    }
  }
  return c;
}

int run_motif(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto g = load_graph(args, rng);
  const int k = static_cast<int>(args.get_int("k", 4));
  const auto palette =
      static_cast<std::uint32_t>(args.get_int("palette", 3));
  MIDAS_REQUIRE(palette > 0, "--palette must be positive");
  const auto colors = load_colors(args, g.num_vertices(), palette, rng);

  std::vector<std::uint32_t> motif;
  if (args.has("motif")) {
    std::istringstream ms(args.get("motif", ""));
    std::string tok;
    while (std::getline(ms, tok, ','))
      motif.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    MIDAS_REQUIRE(static_cast<int>(motif.size()) == k,
                  "--motif must list exactly k colors");
  } else {
    // Sample the multiset from the coloring itself, so it is always
    // color-feasible and the answer hinges on connectivity.
    for (int i = 0; i < k; ++i)
      motif.push_back(colors[rng.below(colors.size())]);
  }

  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  gf::GF256 f;
  {
    std::ostringstream ms;
    for (std::size_t i = 0; i < motif.size(); ++i)
      ms << (i ? "," : "") << motif[i];
    std::printf("graph: n=%u m=%llu   query: motif {%s} over %u color(s)%s "
                "l=%d\n",
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()),
                ms.str().c_str(), palette, kernel_field(args, f).c_str(),
                f.bits());
  }
  Timer t;
  bool found = false;
  if (ranks > 1) {
    const core::MidasOptions opt = midas_options(args, k, rng);
    const auto part = partition::multilevel_partition(g, opt.n1);
    const auto res = core::midas_motif(g, part, colors, motif, opt, f);
    found = res.found;
    print_distributed(res, opt);
  } else {
    core::DetectOptions opt;
    opt.k = k;
    opt.epsilon = args.get_double("epsilon", 1e-4);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.kernel = kernel_option(args);
    found = core::detect_motif_seq(g, colors, motif, opt, f).found;
    std::printf("answer: %s   (%.0f ms)\n", found ? "YES" : "no",
                t.elapsed_ms());
  }
  if (found && args.get_flag("witness")) {
    if (const auto vs = core::extract_motif(
            g, colors, motif,
            {.seed = static_cast<std::uint64_t>(args.get_int("seed", 1))})) {
      std::printf("witness:");
      for (auto v : *vs) std::printf(" %u (c%u)", v, colors[v]);
      std::printf("\n");
    }
  }
  return 0;
}

int run_scan(const Args& args) {
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto g = load_graph(args, rng);
  const int k = static_cast<int>(args.get_int("k", 5));
  const auto w = load_weights(args, g.num_vertices(), rng);
  scan::ScanProblem problem;
  problem.k = k;
  problem.event.assign(w.begin(), w.end());
  const std::string stat = args.get("stat", "ebp");
  if (stat == "kulldorff") problem.statistic = scan::Statistic::kKulldorff;
  else if (stat == "mean") problem.statistic =
      scan::Statistic::kElevatedMean;
  else if (stat == "bj") problem.statistic = scan::Statistic::kBerkJones;
  else problem.statistic = scan::Statistic::kEBPoisson;

  core::ScanOptions opt;
  opt.k = k;
  opt.epsilon = args.get_double("epsilon", 1e-4);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.kernel = kernel_option(args);
  const gf::GF256 f;  // the field optimize_scan_seq runs over
  std::printf("graph: n=%u m=%llu   query: %s scan, |S|<=%d   kernel=%s "
              "l=%d\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              scan::to_string(problem.statistic).c_str(), k,
              core::kernel_name(f, opt.kernel), f.bits());
  Timer t;
  const auto best = scan::optimize_scan_seq(g, problem, opt);
  std::printf("best %s score: %.4f at |S|=%d, weight %u   (%.0f ms)\n",
              scan::to_string(problem.statistic).c_str(), best.score,
              best.size, best.weight, t.elapsed_ms());
  if (best.score > 0 && args.get_flag("witness")) {
    if (const auto s = core::extract_connected_subgraph(
            g, w, best.size, best.weight, {.seed = opt.seed})) {
      std::printf("subgraph:");
      for (auto v : *s) std::printf(" %u", v);
      std::printf("\n");
    }
  }
  return 0;
}

/// Fill the service-layer knobs shared by `serve --replay` and
/// `serve --listen`. Returns 0, or the exit code of a usage error.
int parse_replay_options(const midas::Args& args,
                         service::ReplayOptions& opt) {
  opt.workers = static_cast<int>(args.get_int("workers", opt.workers));
  opt.cores = static_cast<int>(args.get_int("cores", opt.cores));
  opt.queue_capacity = static_cast<std::size_t>(
      args.get_int("queue", static_cast<std::int64_t>(opt.queue_capacity)));
  opt.cache_capacity = static_cast<std::size_t>(
      args.get_int("cache", static_cast<std::int64_t>(opt.cache_capacity)));
  opt.cache_enabled = !args.get_flag("no-cache");
  opt.retry.max_attempts =
      static_cast<int>(args.get_int("retries", opt.retry.max_attempts));
  opt.hedge_multiplier = args.get_double("hedge", opt.hedge_multiplier);
  opt.breaker.failure_threshold = static_cast<int>(args.get_int(
      "breaker-threshold", opt.breaker.failure_threshold));
  // Integrity: certified positives, background audits, artifact checksum
  // verification (docs/INTEGRITY.md).
  opt.certify = args.get_flag("certify");
  opt.audit_rate = args.get_double("audit-rate", 0.0);
  const std::string verify = args.get("verify-artifacts", "off");
  if (verify == "off") {
    opt.verify = service::ArtifactCache::Verify::kOff;
  } else if (verify == "sampled") {
    opt.verify = service::ArtifactCache::Verify::kSampled;
  } else if (verify == "full") {
    opt.verify = service::ArtifactCache::Verify::kFull;
  } else {
    std::fprintf(stderr,
                 "--verify-artifacts expects off|sampled|full, got %s\n",
                 verify.c_str());
    return 2;
  }
  // Chaos harness: seeded service-level fault injection (--fault-*).
  opt.chaos.query_kill_p = args.get_double("fault-query-kill", 0.0);
  opt.chaos.query_corrupt_p = args.get_double("fault-query-corrupt", 0.0);
  opt.chaos.build_fail_p = args.get_double("fault-build-fail", 0.0);
  opt.chaos.worker_kill_p = args.get_double("fault-worker-kill", 0.0);
  opt.chaos.artifact_flip_p = args.get_double("fault-artifact-flip", 0.0);
  opt.chaos.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", static_cast<std::int64_t>(opt.chaos.seed)));
  return 0;
}

/// "HOST:PORT" -> (host, port). Returns false on a malformed address.
bool parse_addr(const std::string& addr, std::string& host,
                std::uint16_t& port) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  host = addr.substr(0, colon);
  try {
    const int p = std::stoi(addr.substr(colon + 1));
    if (p < 0 || p > 65535) return false;
    port = static_cast<std::uint16_t>(p);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

volatile std::sig_atomic_t g_stop = 0;
void on_stop_signal(int) { g_stop = 1; }

int run_listen(const midas::Args& args,
               const service::ReplayOptions& ropt) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_addr(args.get("listen", ""), host, port)) {
    std::fprintf(stderr, "--listen expects HOST:PORT\n");
    return 2;
  }

  service::ServiceOptions sopt;
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
  service::DetectionService svc(sopt);

  if (args.has("graphs")) {
    const auto wl = service::parse_workload(args.get("graphs", ""));
    for (const auto& gs : wl.graphs) {
      svc.add_graph(gs.name, service::build_graph(gs));
      std::printf("graph %s: %s n=%u (preloaded)\n", gs.name.c_str(),
                  gs.kind.c_str(), gs.n);
    }
  }

  net::ServerOptions nopt;
  nopt.host = host;
  nopt.port = port;
  nopt.max_connections =
      static_cast<std::size_t>(args.get_int("max-conns", 4096));
  nopt.max_inflight_per_conn =
      static_cast<std::size_t>(args.get_int("max-inflight", 128));
  nopt.tenant_quota_interactive =
      static_cast<std::uint64_t>(args.get_int("quota-interactive", 0));
  nopt.tenant_quota_batch =
      static_cast<std::uint64_t>(args.get_int("quota-batch", 0));
  net::Server server(svc, nopt);
  server.start();
  std::printf("listening on %s:%u\n", host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.stop();
  const auto ns = server.stats();
  svc.drain();
  std::printf(
      "shutdown: %llu conn(s) accepted (%llu rejected), %llu/%llu frames "
      "rx/tx, %llu/%llu bytes rx/tx\n"
      "          %llu queries -> %llu results + %llu error frames "
      "(%llu protocol, %llu overload, %llu quota), %llu graph(s) "
      "registered over the wire\n",
      static_cast<unsigned long long>(ns.connections_accepted),
      static_cast<unsigned long long>(ns.connections_rejected),
      static_cast<unsigned long long>(ns.frames_rx),
      static_cast<unsigned long long>(ns.frames_tx),
      static_cast<unsigned long long>(ns.rx_bytes),
      static_cast<unsigned long long>(ns.tx_bytes),
      static_cast<unsigned long long>(ns.queries_rx),
      static_cast<unsigned long long>(ns.results_tx),
      static_cast<unsigned long long>(ns.errors_tx),
      static_cast<unsigned long long>(ns.protocol_errors),
      static_cast<unsigned long long>(ns.overload_rejects),
      static_cast<unsigned long long>(ns.quota_rejects),
      static_cast<unsigned long long>(ns.graphs_registered));
  return 0;
}

int run_serve(const midas::Args& args) {
  service::ReplayOptions opt;
  if (const int rc = parse_replay_options(args, opt); rc != 0) return rc;
  if (args.has("listen")) return run_listen(args, opt);

  const std::string workload = args.get("replay", "");
  if (workload.empty()) {
    std::fprintf(stderr,
                 "serve needs --replay=WORKLOAD or --listen=HOST:PORT\n");
    return 2;
  }
  const service::ReplayReport rep = service::run_replay(workload, opt);
  std::ostringstream os;
  service::print_report(os, rep);
  std::fputs(os.str().c_str(), stdout);
  return rep.interactive.failed + rep.batch.failed == 0 ? 0 : 1;
}

int run_query(const midas::Args& args) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_addr(args.get("connect", ""), host, port)) {
    std::fprintf(stderr, "query needs --connect=HOST:PORT\n");
    return 2;
  }
  net::ClientOptions copt;
  copt.host = host;
  copt.port = port;
  copt.tenant = static_cast<std::uint32_t>(args.get_int("tenant", 0));
  net::Client client(copt);

  if (args.get_flag("ping")) {
    Timer t;
    client.ping();
    std::printf("pong from %s:%u (%.2f ms)\n", host.c_str(), port,
                t.elapsed_ms());
  }

  std::uint32_t graph_n = 0;  // vertex count of --graph, if discoverable
  if (args.has("register")) {
    const auto wl = service::parse_workload(args.get("register", ""));
    for (const auto& gs : wl.graphs) {
      client.add_graph(gs);
      if (gs.name == args.get("graph", "")) graph_n = gs.n;
      std::printf("graph %s: %s n=%u (registered)\n", gs.name.c_str(),
                  gs.kind.c_str(), gs.n);
    }
  }

  if (!args.has("graph")) return 0;  // ping/register-only invocation

  service::QuerySpec q;
  q.graph = args.get("graph", "");
  if (!enum_flag(args, "type", q.type) || !enum_flag(args, "lane", q.lane) ||
      !enum_flag(args, "kernel", q.kernel))
    return 2;
  q.k = static_cast<int>(args.get_int("k", q.k));
  q.field_bits = static_cast<int>(args.get_int("l", q.field_bits));
  q.epsilon = args.get_double("epsilon", q.epsilon);
  q.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  q.max_rounds = static_cast<int>(args.get_int("rounds", 0));
  q.n_ranks = static_cast<int>(args.get_int("ranks", q.n_ranks));
  q.n1 = static_cast<int>(args.get_int("n1", q.n1));
  q.n2 = static_cast<std::uint32_t>(args.get_int("n2", q.n2));
  q.timeout_s = args.get_double("timeout", 0.0);
  q.certify = args.get_flag("certify");
  if (graph_n == 0) graph_n = static_cast<std::uint32_t>(args.get_int("n", 0));
  const std::int64_t palette = args.get_int("palette", 3);
  if ((q.type == service::QueryType::kScan ||
       q.type == service::QueryType::kMotif) &&
      (graph_n == 0 || palette < 1)) {
    std::fprintf(stderr,
                 "%s queries need --n=<graph vertices> (or --register with "
                 "the graph's recipe) and --palette >= 1 to derive their "
                 "payload\n",
                 service::to_string(q.type));
    return 2;
  }
  service::derive_payload(q, graph_n, static_cast<std::uint32_t>(palette));

  Timer t;
  const service::QueryResult res = client.query(q);
  if (q.type == service::QueryType::kScan) {
    std::uint64_t feasible = 0;
    for (const auto& row : res.table.feasible)
      feasible += static_cast<std::uint64_t>(
          std::count(row.begin(), row.end(), true));
    std::printf("scan table: %llu feasible (size, weight) cell(s), "
                "%d round(s)   (%.0f ms)\n",
                static_cast<unsigned long long>(feasible), res.rounds_run,
                t.elapsed_ms());
  } else {
    std::printf("answer: %s   (%d round(s), achieved eps %.3g; %.0f ms)\n",
                res.found ? "YES" : "no", res.rounds_run,
                res.achieved_epsilon, t.elapsed_ms());
  }
  if (res.certified && !res.witness.empty()) {
    std::printf("witness:");
    for (auto v : res.witness) std::printf(" %u", v);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const midas::Args args(argc, argv);
  if (args.positional().empty()) {
    std::printf(
        "usage: midas_cli <path|dipath|tree|maxweight|motif|scan|serve|"
        "query> [flags]\n"
        "see the header comment of examples/midas_cli.cpp for flags\n");
    return 2;
  }
  const std::string cmd = args.positional()[0];
  // Arm tracing before dispatch so the whole command lands in one session;
  // run_spmd sees an already-armed tracer and leaves export to us.
  midas::runtime::TraceOptions topt;
  topt.trace_path = args.get("trace-out", "");
  topt.metrics_path = args.get("metrics-out", "");
  topt.enabled = !topt.trace_path.empty() || !topt.metrics_path.empty();
  if (topt.enabled) midas::runtime::tracer().enable();
  int rc = 2;
  try {
    if (cmd == "path") rc = run_path(args);
    else if (cmd == "dipath") rc = run_dipath(args);
    else if (cmd == "tree") rc = run_tree(args);
    else if (cmd == "maxweight") rc = run_maxweight(args);
    else if (cmd == "motif") rc = run_motif(args);
    else if (cmd == "scan") rc = run_scan(args);
    else if (cmd == "serve") rc = run_serve(args);
    else if (cmd == "query") rc = run_query(args);
    else {
      std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (topt.enabled) {
    auto& tr = midas::runtime::tracer();
    tr.disable();
    if (!topt.trace_path.empty()) {
      tr.write_chrome_json(topt.trace_path);
      std::printf("trace: %zu event(s) -> %s\n", tr.event_count(),
                  topt.trace_path.c_str());
    }
    if (!topt.metrics_path.empty()) {
      tr.write_metrics(topt.metrics_path);
      std::printf("metrics: -> %s\n", topt.metrics_path.c_str());
    }
  }
  return rc;
}
