// The benchmark's own bookkeeping: the percentile rule, the answer digest,
// the metric ledger every workload reports into, and the spans the traced
// run records around each layer call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "service/query.hpp"

namespace perfbench {

/// Median by linear interpolation (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> xs);

/// The machine's CPU time counters in clock ticks, summed over its CPUs
/// (the "cpu" line of /proc/stat). `steal` is time the hypervisor gave
/// this machine's virtual CPUs to other guests. Both are 0 where the
/// counters cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Share of the CPU time between two readings that the host stole.
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Completions per second in each whole interval of `interval_s` in the
/// window [0, window_s). `done_s` holds completion times in seconds from
/// window start; later ones (the drain) are not counted.
[[nodiscard]] std::vector<double> interval_rates(
    const std::vector<double>& done_s, double window_s, double interval_s);

/// The stretches of a window to measure on a shared host, given the
/// steal share of each. A stretch is kept when its share is at most the
/// median share or at most kQuietStealShare: at least half are kept, and
/// all of them on a quiet host. The choice looks only at the host, never
/// at the program's own speed.
inline constexpr double kQuietStealShare = 0.02;
[[nodiscard]] std::vector<bool> quiet_mask(
    const std::vector<double>& steal_shares);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples strictly above its rank, capped at p99 (so p99 at
/// >= 1000 samples with the default 10). Nearest-rank: the value is the
/// sample at rank ceil(pct/100 * n). With n <= min_beyond no percentile
/// qualifies and the maximum is reported with beyond = 0.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> xs, std::size_t min_beyond = 10);

/// One query's contribution to a workload's answer digest: the fields of
/// bench_net_throughput's answer_digest (fingerprint, decision, rounds,
/// achieved epsilon, witness, scan table). Digests fold with a wrapping
/// sum, so completion order cannot change a workload's total.
[[nodiscard]] std::uint64_t answer_digest(
    const midas::service::QuerySpec& q, const midas::service::QueryResult& r);

/// The answer fields a direct core call must reproduce bit-for-bit:
/// decision, rounds, first successful round, achieved epsilon, scan table.
[[nodiscard]] bool same_answer(const midas::service::QueryResult& a,
                               const midas::service::QueryResult& b);

/// True for names made of [A-Za-z0-9_.-], starting with a letter or digit,
/// at most 64 characters — the benchmark contract's metric-name rule.
[[nodiscard]] bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metric list for one run. add() rejects invalid or repeated
/// names (std::invalid_argument): a malformed report must not be printed.
class Ledger {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  /// The JSON object the benchmark prints as its last line.
  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Spans the benchmark records around its own calls into each layer
/// (name, start, end, parent), kept in memory for the traced run.
class Spans {
 public:
  /// RAII span; with a null owner nothing is recorded.
  class Scope {
   public:
    Scope(Spans* owner, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    std::size_t index_;
  };

  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    long parent = -1;
  };

  /// Duration in ms of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
  /// The spans as a Chrome trace (one "X" event each, on one lane).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
  long open_ = -1;
};

/// Self time (span duration minus the time its child spans cover) summed
/// per span name over the runtime tracer's rank lanes, in ns. The host
/// lane (-1) is shared by unrelated threads and is skipped.
struct SelfTimes {
  std::uint64_t phase_ns = 0;       // engine.phase.* minus halo children
  std::uint64_t halo_ns = 0;        // engine.halo_exchange, inclusive
  std::uint64_t collective_ns = 0;  // comm.* outside a halo exchange
};
[[nodiscard]] SelfTimes self_times(
    const std::vector<midas::runtime::TraceEvent>& events);

}  // namespace perfbench
