// wire-small and wire-mix: queries over loopback TCP to an in-process
// net::Server in front of a DetectionService with the auto core budget.
// Load comes from one thread driving 3 pipelined connections; each query
// is timed when its own future completes (a sweep over every in-flight
// future), never when an older one ahead of it is harvested. The window
// is cut into one-second intervals, and the end-to-end figures are taken
// over those in which the host stole the least CPU time (measure_quiet).
//
//   wire-small: closed loop, window 8 per connection, latency send->answer.
//   wire-mix:   open loop, seeded Poisson arrivals, latency due->answer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "direct.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/integrity.hpp"
#include "service/service.hpp"
#include "specs.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = midas::service;
namespace net = midas::net;
using Clock = std::chrono::steady_clock;
using midas::Timer;

namespace {

constexpr int kConnections = 3;
constexpr std::size_t kWindow = 8;  // wire-small in-flight per connection
/// An admission rejection is sent again after a short back-off, at most
/// this many times; past that the query counts as failed.
constexpr int kMaxRetries = 100;
constexpr auto kRetryBackoff = std::chrono::milliseconds(1);
/// The window is cut into intervals of this length; wire-small measures
/// over those in which the host stole the least CPU time.
constexpr auto kInterval = std::chrono::seconds(1);
/// Bound on wire-small's answer rate, which sizes its record array.
constexpr double kMaxQps = 16000;
/// At most this many answers are kept for the recheck sample, so that
/// the memory the sample holds does not grow with the window.
constexpr std::size_t kMaxSampled = 1024;

/// One serving stack. Clients close before the server stops, and the
/// server stops before the service it fronts is destroyed.
struct Stack {
  std::unique_ptr<svc::DetectionService> service;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    clients.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<Stack> start_stack(const std::vector<svc::GraphSpec>& graphs) {
  auto st = std::make_unique<Stack>();
  st->service = std::make_unique<svc::DetectionService>(svc::ServiceOptions{});
  st->server = std::make_unique<net::Server>(*st->service);
  st->server->start();
  for (int c = 0; c < kConnections; ++c) {
    net::ClientOptions co;
    co.port = st->server->port();
    st->clients.push_back(std::make_unique<net::Client>(co));
  }
  for (const auto& g : graphs) st->clients[0]->add_graph(g);
  return st;
}

int type_idx(svc::QueryType t) { return static_cast<int>(t); }

double lane_limit_ms(bool interactive) {
  return interactive ? kInteractiveLimitMs : kBatchLimitMs;
}

/// Per-query record kept for every completion (small: wire-small runs
/// ~10^5 queries per run).
struct Rec {
  float latency_ms = 0;  // send (closed) or due (open) -> answer
  float wire_ms = 0;     // send -> answer minus the server's total_s
  float queue_ms = 0, exec_ms = 0, engine_ms = 0, vtime_ms = 0;
  float iter_vertex_ns = 0;  // path only: rank-ns per 2^k * n
  float done_s = 0;          // answer time, seconds from window start
  int type = 0;
  bool interactive = false;
  bool ok = false;
  bool second_half = false;
};

struct Kept {
  svc::QuerySpec spec;
  svc::QueryResult qr;
  bool sampled = false;  // in the seeded recheck sample
};

struct Flight {
  svc::QuerySpec spec;
  std::shared_future<svc::QueryResult> fut;
  Clock::time_point due, sent, retry_at;
  int conn = 0;
  int retries = 0;
  bool keep = false;
  bool second_half = false;
};

struct Tally {
  std::vector<Rec> recs;
  std::vector<Kept> kept;
  std::uint64_t sent = 0;  // distinct queries issued (retries excluded)
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t bad_witness = 0;
  std::uint64_t digest = 0;
  double late_ms_max = 0;
};

class Generator {
 public:
  Generator(Stack& st, const std::map<std::string, std::uint32_t>& sizes,
            Tally& tally)
      : st_(st), sizes_(sizes), tally_(tally) {}

  /// Closed loop: keep kWindow queries in flight per connection until
  /// `seconds` pass and, with `extend`, one interval at a time past that
  /// until half as many intervals were quiet (kMaxWindowFactor); then
  /// drain. `next(i)` makes the i-th spec.
  template <typename Next>
  void closed(double seconds, bool extend, Next&& next,
              std::uint64_t keep_every, const std::function<void()>& at_half) {
    const double longest = extend ? seconds * kMaxWindowFactor : seconds;
    start(seconds, static_cast<std::size_t>(longest * kMaxQps), at_half);
    const auto last_end = t0_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(longest));
    const auto quiet_needed = static_cast<std::size_t>(
        std::ceil(seconds / 2 / std::chrono::duration<double>(kInterval).count()));
    std::uint64_t i = 0;
    for (;;) {
      const auto now = Clock::now();
      tick(now);
      resend_due(now);
      if (now >= end_ && quiet_seen_ < quiet_needed && end_ < last_end)
        end_ += kInterval;
      if (now < end_) {
        for (int c = 0; c < kConnections; ++c)
          while (per_conn_[c] < kWindow) {
            submit(c, next(i), now, i % keep_every == 0);
            ++i;
          }
      } else if (idle()) {
        break;
      }
      wait(now + std::chrono::microseconds(50));
      sweep();
    }
  }

  /// Open loop: send each arrival at its due time regardless of what is
  /// in flight, then drain (and wait out the window).
  void open(const std::vector<Arrival>& schedule, double seconds,
            std::uint64_t keep_every,
            const std::function<void()>& at_half) {
    start(seconds, schedule.size(), at_half);
    std::size_t i = 0;
    int conn = 0;
    for (;;) {
      const auto now = Clock::now();
      tick(now);
      resend_due(now);
      while (i < schedule.size() && due(schedule[i]) <= now) {
        const double late =
            std::chrono::duration<double, std::milli>(now - due(schedule[i]))
                .count();
        tally_.late_ms_max = std::max(tally_.late_ms_max, late);
        submit(conn, schedule[i].spec, due(schedule[i]), i % keep_every == 0);
        conn = (conn + 1) % kConnections;
        ++i;
      }
      // Past the last answer it waits out the window, whose last interval
      // mark (tick) is read at its end.
      if (i == schedule.size() && idle() && now >= end_) break;
      auto until = Clock::now() + std::chrono::microseconds(200);
      if (i < schedule.size()) until = std::min(until, due(schedule[i]));
      wait(until);
      sweep();
    }
  }

  [[nodiscard]] double window_s() const {
    return std::chrono::duration<double>(end_ - t0_).count();
  }
  /// The host's CPU counters at the start of each whole interval of the
  /// window and at its end.
  [[nodiscard]] const std::vector<CpuTicks>& marks() const { return marks_; }
  /// Window start to the last completion: the span the answers took.
  [[nodiscard]] double busy_span_s() const {
    return std::chrono::duration<double>(last_done_ - t0_).count();
  }

 private:
  Clock::time_point due(const Arrival& a) const {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.due_s));
  }

  /// `records` bounds the queries the window will send. The record array
  /// is made resident before the window, so that rss_mb does not grow
  /// with the number of queries answered.
  void start(double seconds, std::size_t records,
             const std::function<void()>& at_half) {
    tally_.recs.resize(records);
    tally_.recs.clear();
    at_half_ = at_half;
    marks_ = {read_cpu_ticks()};
    t0_ = Clock::now();
    next_mark_ = t0_ + kInterval;
    last_done_ = t0_;
    half_ = t0_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds / 2));
    end_ = t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  }

  void tick(Clock::time_point now) {
    while (now >= next_mark_ && next_mark_ <= end_) {
      marks_.push_back(read_cpu_ticks());
      next_mark_ += kInterval;
      const std::size_t k = marks_.size();
      if (steal_share(marks_[k - 2], marks_[k - 1]) <= kQuietStealShare)
        ++quiet_seen_;
    }
    if (!halved_ && now >= half_) {
      halved_ = true;
      if (at_half_) at_half_();
    }
  }

  void submit(int conn, const svc::QuerySpec& spec, Clock::time_point due,
              bool keep) {
    Flight f;
    f.spec = spec;
    f.due = due;
    f.keep = keep && sampled_ < kMaxSampled;
    sampled_ += f.keep ? 1 : 0;
    f.second_half = halved_;
    f.conn = conn;
    ++tally_.sent;
    ++per_conn_[conn];
    send(std::move(f));
  }

  void send(Flight f) {
    f.sent = Clock::now();
    try {
      f.fut = st_.clients[static_cast<std::size_t>(f.conn)]->submit(f.spec);
      inflight_.push_back(std::move(f));
    } catch (const std::exception&) {
      fail(f);  // the connection is dead; nothing will answer
    }
  }

  /// Admission said "not now": send it again after a back-off, unless
  /// it has been turned away too often already.
  void retry(Flight f, Clock::time_point now) {
    ++tally_.retries;
    if (++f.retries > kMaxRetries) {
      fail(f);
      return;
    }
    f.retry_at = now + kRetryBackoff;
    backoff_.push_back(std::move(f));
  }

  void resend_due(Clock::time_point now) {
    for (std::size_t j = 0; j < backoff_.size();) {
      if (backoff_[j].retry_at > now) {
        ++j;
        continue;
      }
      Flight f = std::move(backoff_[j]);
      if (j + 1 != backoff_.size()) backoff_[j] = std::move(backoff_.back());
      backoff_.pop_back();
      send(std::move(f));
    }
  }

  void fail(const Flight& f) {
    ++tally_.failed;
    Rec rec;
    rec.interactive = f.spec.lane == svc::Lane::kInteractive;
    rec.second_half = f.second_half;
    tally_.recs.push_back(rec);
    --per_conn_[f.conn];
  }

  [[nodiscard]] bool idle() const {
    return inflight_.empty() && backoff_.empty();
  }

  /// Block until `until` or until the oldest in-flight query completes;
  /// the sweep that follows catches any other completion.
  void wait(Clock::time_point until) {
    if (inflight_.empty())
      std::this_thread::sleep_until(until);
    else
      inflight_.front().fut.wait_until(until);
  }

  void sweep() {
    for (std::size_t j = 0; j < inflight_.size();) {
      if (inflight_[j].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      const auto now = Clock::now();
      Flight f = std::move(inflight_[j]);
      if (j + 1 != inflight_.size()) inflight_[j] = std::move(inflight_.back());
      inflight_.pop_back();
      try {
        const svc::QueryResult r = f.fut.get();
        complete(f, r, now);
        --per_conn_[f.conn];
      } catch (const svc::ServiceOverloadError&) {
        retry(std::move(f), now);
      } catch (const net::QuotaExceededError&) {
        retry(std::move(f), now);
      } catch (const std::exception&) {
        fail(f);
      }
    }
  }

  void complete(const Flight& f, const svc::QueryResult& r,
                Clock::time_point now) {
    Rec rec;
    rec.latency_ms =
        std::chrono::duration<double, std::milli>(now - f.due).count();
    rec.wire_ms =
        std::chrono::duration<double, std::milli>(now - f.sent).count() -
        r.total_s * 1e3;
    rec.queue_ms = r.queue_s * 1e3;
    rec.exec_ms = (r.total_s - r.queue_s) * 1e3;
    rec.engine_ms = r.engine_wall_s * 1e3;
    rec.vtime_ms = r.vtime * 1e3;
    rec.type = type_idx(f.spec.type);
    rec.interactive = f.spec.lane == svc::Lane::kInteractive;
    last_done_ = std::max(last_done_, now);
    rec.done_s = std::chrono::duration<float>(now - t0_).count();
    rec.second_half = f.second_half;
    rec.ok = true;
    if (f.spec.type == svc::QueryType::kPath)
      rec.iter_vertex_ns = r.engine_wall_s * 1e9 * f.spec.n_ranks /
                           std::ldexp(sizes_.at(f.spec.graph), f.spec.k);
    tally_.digest += answer_digest(f.spec, r);
    if (f.spec.certify && r.found && !r.certified) {
      ++tally_.bad_witness;  // a "yes" the service could not back
      rec.ok = false;
    }
    tally_.recs.push_back(rec);
    if (f.keep || (f.spec.certify && r.found))
      tally_.kept.push_back({f.spec, r, f.keep});
  }

  Stack& st_;
  const std::map<std::string, std::uint32_t>& sizes_;
  Tally& tally_;
  std::vector<Flight> inflight_;
  std::vector<Flight> backoff_;  // admission-rejected, waiting to resend
  std::size_t per_conn_[kConnections] = {};  // queries not yet settled
  std::function<void()> at_half_;
  Clock::time_point t0_, half_, end_, last_done_, next_mark_;
  std::vector<CpuTicks> marks_;
  std::size_t quiet_seen_ = 0;  // intervals with little steal so far
  std::size_t sampled_ = 0;     // queries marked for the recheck sample
  bool halved_ = false;
};

/// A query makes several thread hand-offs across the machine's CPUs, so
/// a second in which the host runs other guests on them slows it by more
/// than the CPU time taken. latency_p50_ms is over the queries answered
/// in the quiet one-second intervals (quiet_mask), and on the closed loop
/// qps is the median rate over those intervals; the open loop's qps is
/// its offered load either way. `done_s` and `e.latency_ms` are per
/// answered query.
void measure_quiet(const Generator& gen, const std::vector<double>& done_s,
                   bool closed, EndToEnd& e, Outcome& out) {
  const double step = std::chrono::duration<double>(kInterval).count();
  const std::vector<double> rates =
      interval_rates(done_s, gen.window_s(), step);
  std::vector<double> shares;
  for (std::size_t i = 0; i + 1 < gen.marks().size(); ++i)
    shares.push_back(steal_share(gen.marks()[i], gen.marks()[i + 1]));
  const std::vector<bool> quiet = quiet_mask(shares);
  if (rates.empty() || quiet.size() != rates.size()) return;
  std::vector<double> kept_rates, kept_lat;
  for (std::size_t i = 0; i < rates.size(); ++i)
    if (quiet[i]) kept_rates.push_back(rates[i]);
  for (std::size_t j = 0; j < done_s.size(); ++j) {
    const auto b = static_cast<std::size_t>(done_s[j] / step);
    if (done_s[j] >= 0 && b < quiet.size() && quiet[b])
      kept_lat.push_back(e.latency_ms[j]);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "host steal %.2f%% of CPU time over the window; %s over %zu "
                "of its %zu one-second intervals (over all: qps %.6g, "
                "latency_p50_ms %.6g)",
                100.0 * steal_share(gen.marks().front(), gen.marks().back()),
                closed ? "qps and latency_p50_ms" : "latency_p50_ms",
                kept_rates.size(), rates.size(), e.qps, median(e.latency_ms));
  out.notes.emplace_back(buf);
  if (closed) e.qps = median(kept_rates);
  e.latency_ms = std::move(kept_lat);
}

}  // namespace

Outcome run_wire(const RunArgs& args) {
  const bool mix = args.workload == "wire-mix";
  Outcome out;
  Spans spans;

  const std::vector<svc::GraphSpec> graphs =
      mix ? wire_mix_graphs(args.seed) : wire_small_graphs(args.seed);
  const int n1 = mix ? 2 : 1;
  std::vector<Arrival> schedule;
  std::vector<svc::QuerySpec> sample;
  if (mix) {
    // Each block of 12 new arrivals holds every (type, graph) pair, so
    // the first 24 arrivals cover every artifact key.
    schedule = wire_mix_schedule(args.seed, args.seconds);
    for (std::size_t i = 0; i < schedule.size() && i < 24; ++i)
      sample.push_back(schedule[i].spec);
  } else {
    for (std::uint64_t i = 0; i < 64; ++i)
      sample.push_back(wire_small_query(args.seed, i));
  }

  std::map<std::string, std::uint32_t> sizes;
  for (const auto& gs : graphs) sizes[gs.name] = gs.n;

  // -- set-up: service + server start, connect, register the graphs over
  // the wire (the server builds them), one warm-up query per (graph,
  // type, n1), which partitions them. The first stack serves the timed
  // window; the repeats for the set-up median come after it.
  std::vector<double> setup;
  const auto set_up = [&] {
    Timer t;
    std::unique_ptr<Stack> st;
    {
      Spans::Scope s(&spans, "net.stack_start");
      st = start_stack(graphs);
    }
    for (svc::QuerySpec q : warmup_queries(sample)) {
      Spans::Scope s(&spans, "net.warmup");
      q.seed ^= 0x3A93ULL;
      (void)st->clients[0]->query(q);
    }
    setup.push_back(t.elapsed_s());
    return st;
  };
  std::unique_ptr<Stack> st = set_up();

  // -- timed window. Stats are read at the half-way mark and after the
  // drain, so the traced half has its own deltas.
  Tally tally;
  net::Server::Stats n_half;
  auto at_half = [&] {
    n_half = st->server->stats();
    if (args.trace) trace_begin();
  };
  Generator gen(*st, sizes, tally);
  if (mix) {
    gen.open(schedule, args.seconds, 8, at_half);
  } else {
    // The traced run compares its two halves, so its window is not
    // extended.
    gen.closed(args.seconds, !args.trace,
               [&](std::uint64_t i) { return wire_small_query(args.seed, i); },
               128, at_half);
  }
  st->service->drain();
  const TraceTotals tt = args.trace ? trace_end() : TraceTotals{};
  const svc::ServiceStats s_end = st->service->stats();
  const net::Server::Stats n_end = st->server->stats();
  // The peak of one serving stack: read before the set-up repeats below,
  // whose torn-down stacks leave freed memory in the allocator's arenas.
  const double rss_mb = peak_rss_mb();
  st.reset();
  // A set-up of a few milliseconds (wire-small) is dominated by thread
  // start-up jitter; it repeats until it has taken kSetupMinSeconds.
  double setup_total = setup.front();
  while (setup.size() < static_cast<std::size_t>(kSetupRepeats) ||
         (setup_total < kSetupMinSeconds && setup.size() < 100)) {
    (void)set_up();
    setup_total += setup.back();
  }
  const double setup_s = median(setup);

  // -- the benchmark's own graphs + views, for the answer checks. The
  // served program built its own copies in set-up.
  std::map<std::string, Prepared> local;
  for (const auto& gs : graphs) {
    midas::graph::Graph g;
    {
      Spans::Scope s(&spans, "graph.build");
      g = svc::build_graph(gs);
    }
    Spans::Scope s(&spans, "partition.build");
    local[gs.name] = prepare(std::move(g), n1);
  }

  // -- answer checks, outside the window: the kept sample against direct
  // single-query core calls, every certified witness exactly.
  std::uint64_t mismatches = 0, rechecked = 0;
  for (const auto& k : tally.kept) {
    const Prepared& p = local.at(k.spec.graph);
    if (k.spec.certify && k.qr.found &&
        !witness_valid(k.spec, k.qr, p.g))
      ++tally.bad_witness;
    if (!k.sampled) continue;
    ++rechecked;
    Spans::Scope s(&spans, "core.recheck");
    svc::QueryResult d = run_views(k.spec, p);
    if (!same_answer(k.qr, d)) ++mismatches;
  }
  // Any query that did not come back with a right answer fails the run:
  // a wrong answer, a bad witness, or an error that was not retried.
  const std::uint64_t bad = mismatches + tally.bad_witness;
  out.attempted = tally.sent + rechecked;
  out.failed = tally.failed + bad;
  out.correct = bad == 0 && tally.failed == 0;

  std::uint64_t completed = 0, in_slo = 0;
  std::vector<double> lat, lat_half[2], inter, done_s;
  lat.reserve(tally.recs.size());
  done_s.reserve(tally.recs.size());
  for (const auto& r : tally.recs) {
    if (!r.ok) continue;
    ++completed;
    lat.push_back(r.latency_ms);
    done_s.push_back(r.done_s);
    lat_half[r.second_half ? 1 : 0].push_back(r.latency_ms);
    if (r.interactive) inter.push_back(r.latency_ms);
    in_slo += r.latency_ms <= lane_limit_ms(r.interactive) ? 1 : 0;
  }
  const double slo_frac =
      static_cast<double>(in_slo) / static_cast<double>(tally.sent);
  const Tail inter_tail = tail(inter);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "answers_digest=%016llx over %llu answers; %llu rechecked "
                "(%llu mismatches, %llu bad witnesses)",
                static_cast<unsigned long long>(tally.digest),
                static_cast<unsigned long long>(tally.recs.size() -
                                                tally.failed),
                static_cast<unsigned long long>(rechecked),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(tally.bad_witness));
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof(buf),
                "slo_frac=%.4f interactive_p50_ms=%.3f "
                "interactive_tail_ms=%.3f (p%.2f of %zu) late_ms.max=%.3f",
                slo_frac, median(inter), inter_tail.value,
                inter_tail.pct, inter_tail.samples, tally.late_ms_max);
  out.notes.emplace_back(buf);

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.qps = static_cast<double>(completed) / gen.busy_span_s();
    e.rss_mb = rss_mb;
    e.latency_ms = std::move(lat);
    measure_quiet(gen, done_s, !mix, e, out);
    report_end_to_end(out, e);
    return out;
  }

  PerLayer pl;
  pl.graph_build_ms = median(spans.durations_ms("graph.build")) * graphs.size();
  pl.partition_build_ms =
      median(spans.durations_ms("partition.build")) * graphs.size();
  double boundary = 0;
  for (const auto& [name, p] : local) boundary += boundary_frac(p);
  pl.boundary_frac = boundary / static_cast<double>(local.size());

  // Trace-derived numbers cover the traced (second) half only.
  double half_queries = 0, half_ranks = 0;
  std::vector<double> by_type[kNumTypes], queue, exec, overhead, wire,
      path_ns;
  double exec_sum = 0, vtime_sum = 0;
  for (const auto& r : tally.recs) {
    if (!r.ok) continue;
    if (r.second_half) {
      half_queries += 1;
      half_ranks += mix ? 2 : 1;
    }
    by_type[r.type].push_back(r.engine_ms);
    queue.push_back(r.queue_ms);
    exec.push_back(r.exec_ms);
    overhead.push_back(r.exec_ms - r.engine_ms);
    wire.push_back(r.wire_ms);
    if (r.type == kPathIdx) path_ns.push_back(r.iter_vertex_ns);
    exec_sum += r.exec_ms;
    vtime_sum += r.vtime_ms;
  }
  fill_from_trace(pl, tt, half_queries, half_ranks);
  for (int t = 0; t < kNumTypes; ++t) pl.core_ms[t] = median(by_type[t]);
  pl.core_ns_per_iter_vertex = median(path_ns);
  const double n_ok = static_cast<double>(exec.size());
  pl.core_vtime_ms = vtime_sum / n_ok;

  const auto d = [](std::uint64_t a, std::uint64_t b = 0) {
    return static_cast<double>(a - b);
  };
  const double sent = d(tally.sent);
  const double executed = d(s_end.executed);
  pl.pool_reuse_frac = d(s_end.pool_reuse) / executed;
  pl.queue_ms_p50 = median(queue);
  pl.queue_ms_tail = tail(queue).value;
  pl.exec_ms_p50 = median(exec);
  pl.overhead_ms_p50 = median(overhead);
  pl.workers = s_end.workers;
  pl.ranks_per_worker = s_end.ranks_per_worker;
  pl.busy_frac = exec_sum / 1e3 / (pl.workers * gen.window_s());
  pl.cache_hit_ratio =
      d(s_end.cache.hits) / d(s_end.cache.hits + s_end.cache.misses);
  pl.cache_builds_per_query = d(s_end.cache.builds) / sent;
  pl.cache_evictions = d(s_end.cache.evictions);
  pl.deduped_frac = d(s_end.deduped) / sent;
  pl.steals_per_query = d(s_end.steals) / executed;
  pl.admission_retries_per_query = d(tally.retries) / sent;

  // Serving-layer byte counts of the traced half, per query.
  pl.rx_bytes_per_query = d(n_end.rx_bytes, n_half.rx_bytes) / half_queries;
  pl.tx_bytes_per_query = d(n_end.tx_bytes, n_half.tx_bytes) / half_queries;
  pl.frames_per_query =
      d(n_end.frames_rx + n_end.frames_tx, n_half.frames_rx + n_half.frames_tx) /
      half_queries;
  pl.wire_ms_p50 = median(wire);

  // Codec cost (query + result, per query) on the workload's own specs
  // and answers; a round trip that changes an answer fails the run.
  std::vector<std::vector<std::uint8_t>> q_bytes, r_bytes;
  for (const auto& k : tally.kept) {
    Spans::Scope s(&spans, "net.encode");
    net::WireWriter wq, wr;
    net::encode_query(wq, k.spec);
    net::encode_result(wr, k.qr);
    q_bytes.push_back(wq.take());
    r_bytes.push_back(wr.take());
  }
  for (std::size_t i = 0; i < tally.kept.size(); ++i) {
    svc::QuerySpec q;
    svc::QueryResult r;
    {
      Spans::Scope s(&spans, "net.decode");
      net::WireReader rq(q_bytes[i].data(), q_bytes[i].size());
      net::WireReader rr(r_bytes[i].data(), r_bytes[i].size());
      q = net::decode_query(rq);
      r = net::decode_result(rr);
    }
    if (svc::query_fingerprint(q) != svc::query_fingerprint(tally.kept[i].spec) ||
        !same_answer(r, tally.kept[i].qr))
      out.correct = false;
  }
  pl.encode_us = median(spans.durations_ms("net.encode")) * 1e3;
  pl.decode_us = median(spans.durations_ms("net.decode")) * 1e3;

  // Certification cost, called from outside on up to 8 certified answers.
  int certified = 0;
  for (const auto& k : tally.kept) {
    if (!(k.spec.certify && k.qr.found) || ++certified > 8) continue;
    svc::QueryResult again = k.qr;
    Spans::Scope s(&spans, "service.certify");
    if (!svc::certify_result(local.at(k.spec.graph).g, k.spec, again) ||
        !again.certified)
      out.correct = false;
  }
  pl.certify_ms = median(spans.durations_ms("service.certify"));

  pl.late_ms_max = tally.late_ms_max;
  if (mix) {
    pl.trace_overhead_frac = median(lat_half[1]) / median(lat_half[0]) - 1.0;
  } else {
    pl.trace_overhead_frac =
        1.0 - static_cast<double>(lat_half[1].size()) /
                  static_cast<double>(lat_half[0].size());
  }
  pl.interactive_p50_ms = median(inter);
  pl.interactive_tail_ms = inter_tail.value;
  pl.slo_frac = slo_frac;
  out.spans = std::move(spans);
  report_per_layer(out, pl);
  return out;
}

}  // namespace perfbench
