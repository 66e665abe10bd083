#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>

#include "runtime/fault.hpp"

namespace perfbench {

namespace svc = midas::service;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return t;
  t.steal = v[7];
  for (const auto x : v) t.total += x;
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::vector<double> interval_rates(const std::vector<double>& done_s,
                                   double window_s, double interval_s) {
  const auto n = static_cast<std::size_t>(window_s / interval_s);
  std::vector<double> rates(n, 0.0);
  for (const double t : done_s) {
    if (t < 0) continue;
    const auto b = static_cast<std::size_t>(t / interval_s);
    if (b < n) rates[b] += 1.0 / interval_s;
  }
  return rates;
}

std::vector<bool> quiet_mask(const std::vector<double>& steal_shares) {
  const double limit = std::max(median(steal_shares), kQuietStealShare);
  std::vector<bool> keep;
  for (const double x : steal_shares) keep.push_back(x <= limit);
  return keep;
}

Tail tail(std::vector<double> xs, std::size_t min_beyond) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n <= min_beyond) {
    t.value = xs.back();
    t.pct = 100.0;
    return t;
  }
  // Rank r (1-based) leaves n - r samples beyond it; the largest r with
  // n - r >= min_beyond, capped at the p99 rank.
  const auto p99_rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::size_t rank = std::min(n - min_beyond, p99_rank);
  t.value = xs[rank - 1];
  t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

std::uint64_t answer_digest(const svc::QuerySpec& q,
                            const svc::QueryResult& r) {
  std::vector<std::uint64_t> w;
  w.reserve(16 + r.witness.size() + r.table.feasible.size());
  w.push_back(svc::query_fingerprint(q));
  w.push_back(r.found ? 1 : 0);
  w.push_back(static_cast<std::uint64_t>(r.rounds_run));
  w.push_back(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(r.found_round)));
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &r.achieved_epsilon, sizeof(eps_bits));
  w.push_back(eps_bits);
  w.push_back(r.certified ? 1 : 0);
  for (auto v : r.witness) w.push_back(v);
  w.push_back(static_cast<std::uint64_t>(r.witness_j));
  w.push_back(r.witness_z);
  w.push_back(static_cast<std::uint64_t>(r.table.k));
  w.push_back(r.table.max_weight);
  for (const auto& row : r.table.feasible) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < row.size(); ++i)
      bits = bits * 31 + (row[i] ? i + 1 : 0);
    w.push_back(bits);
  }
  return midas::runtime::fnv1a(
      std::as_bytes(std::span<const std::uint64_t>(w)));
}

bool same_answer(const svc::QueryResult& a, const svc::QueryResult& b) {
  return a.found == b.found && a.rounds_run == b.rounds_run &&
         a.found_round == b.found_round &&
         std::memcmp(&a.achieved_epsilon, &b.achieved_epsilon,
                     sizeof(double)) == 0 &&
         a.table.k == b.table.k && a.table.max_weight == b.table.max_weight &&
         a.table.feasible == b.table.feasible;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Ledger::add(const std::string& name, const std::string& unit,
                 double value) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name: " + name);
  for (const auto& m : metrics_)
    if (m.name == name)
      throw std::invalid_argument("duplicate metric name: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for metric " + name);
  metrics_.push_back({name, unit, value});
}

std::string Ledger::result_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Spans::Scope::Scope(Spans* owner, const char* name)
    : owner_(owner), index_(0) {
  if (owner_ == nullptr) return;
  index_ = owner_->spans_.size();
  owner_->spans_.push_back({name, now_ns(), 0, owner_->open_});
  owner_->open_ = static_cast<long>(index_);
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  auto& s = owner_->spans_[index_];
  s.end_ns = now_ns();
  owner_->open_ = s.parent;
}

std::vector<double> Spans::durations_ms(const char* name) const {
  std::vector<double> ms;
  for (const auto& s : spans_)
    if (std::strcmp(s.name, name) == 0)
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return ms;
}

std::string Spans::chrome_json() const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %ld}}",
                  i ? "," : "", s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

SelfTimes self_times(const std::vector<midas::runtime::TraceEvent>& events) {
  using midas::runtime::TraceEventType;
  struct Open {
    std::string_view name;
    std::uint64_t start = 0;
    std::uint64_t child = 0;
  };
  auto starts = [](std::string_view s, std::string_view p) {
    return s.substr(0, p.size()) == p;
  };
  std::vector<std::vector<Open>> lanes;
  SelfTimes st;
  for (const auto& e : events) {
    if (e.lane < 0 || e.name == nullptr) continue;
    const auto lane = static_cast<std::size_t>(e.lane);
    if (lanes.size() <= lane) lanes.resize(lane + 1);
    auto& stack = lanes[lane];
    if (e.type == TraceEventType::kBegin) {
      stack.push_back({e.name, e.ts_ns, 0});
      continue;
    }
    if (e.type != TraceEventType::kEnd || stack.empty()) continue;
    const Open o = stack.back();
    stack.pop_back();
    const std::uint64_t dur = e.ts_ns >= o.start ? e.ts_ns - o.start : 0;
    if (!stack.empty()) stack.back().child += dur;
    if (starts(o.name, "engine.phase.")) {
      st.phase_ns += dur >= o.child ? dur - o.child : 0;
    } else if (o.name == "engine.halo_exchange") {
      st.halo_ns += dur;
    } else if (starts(o.name, "comm.")) {
      const bool nested = std::any_of(stack.begin(), stack.end(),
                                      [&](const Open& p) {
                                        return starts(p.name, "comm.") ||
                                               p.name == "engine.halo_exchange";
                                      });
      if (!nested) st.collective_ns += dur;
    }
  }
  return st;
}

}  // namespace perfbench
