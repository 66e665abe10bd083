// The N / N1 / N2 scheduling arithmetic of MIDAS (paper Fig. 1, Table I).
//
// A run consists of `rounds` independent repetitions. Each round evaluates
// the polynomial for 2^k iterations. Iterations are grouped into *phases*
// of N2 consecutive iterations whose communication is batched into one
// message. The N ranks are split into a = N / N1 *phase groups* of N1 ranks
// each; group g processes phases g, g + a, g + 2a, ... so all groups finish
// within one phase of each other. A *batch* is one simultaneous wave of a
// phases (the paper's term); batches = ceil(phases / a).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace midas::core {

/// Largest subgraph size k a schedule accepts (2^k iterations per round);
/// service admission rejects larger k against the same bound.
inline constexpr int kMaxK = 28;

/// Number of independent rounds needed for failure probability <= epsilon,
/// given the per-round success probability of 1/5 (paper Theorem 1):
/// ceil(log(1/eps) / log(5/4)).
[[nodiscard]] inline int rounds_for_epsilon(double epsilon) {
  MIDAS_REQUIRE(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
  // 1/eps overflows to inf below 1/DBL_MAX (subnormal eps); -log(eps)
  // stays finite there, and log(1/eps) keeps every other value as before.
  const double inv = 1.0 / epsilon;
  const double nats = std::isinf(inv) ? -std::log(epsilon) : std::log(inv);
  return static_cast<int>(std::ceil(nats / std::log(5.0 / 4.0)));
}

struct Schedule {
  int k = 0;             // subgraph size
  int rounds = 1;        // repetitions (epsilon driven)
  int n_ranks = 1;       // N
  int n1 = 1;            // ranks per phase group (graph parts)
  std::uint32_t n2 = 1;  // iterations per phase (batched communication)

  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return std::uint64_t{1} << k;
  }
  [[nodiscard]] int groups() const noexcept { return n_ranks / n1; }
  [[nodiscard]] std::uint64_t phases() const noexcept {
    return (iterations() + n2 - 1) / n2;
  }
  [[nodiscard]] std::uint64_t batches() const noexcept {
    const auto a = static_cast<std::uint64_t>(groups());
    return (phases() + a - 1) / a;
  }
  /// Number of phases assigned to group g (groups may differ by one when
  /// a does not divide the phase count).
  [[nodiscard]] std::uint64_t phases_of_group(int g) const noexcept {
    const auto a = static_cast<std::uint64_t>(groups());
    const auto p = phases();
    return p / a + ((static_cast<std::uint64_t>(g) < p % a) ? 1 : 0);
  }
  /// Iteration range [first, last) of phase number `t`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> phase_range(
      std::uint64_t t) const noexcept {
    const std::uint64_t first = t * n2;
    const std::uint64_t last = std::min(iterations(), first + n2);
    return {first, last};
  }
};

/// Failover assignment (docs/RESILIENCE.md): the phases owned by dead
/// groups, enumerated in ascending phase order, are dealt round-robin to
/// the intact groups in ascending group order. Returns the extra phases
/// `my_group` must recompute. Purely arithmetic in the failure view, so
/// every rank that agrees on (dead_groups, intact_groups) derives the same
/// assignment — no coordination messages needed.
[[nodiscard]] inline std::vector<std::uint64_t> failover_phases(
    const Schedule& s, const std::vector<int>& dead_groups,
    const std::vector<int>& intact_groups, int my_group) {
  std::vector<std::uint64_t> mine;
  if (dead_groups.empty() || intact_groups.empty()) return mine;
  const auto it =
      std::find(intact_groups.begin(), intact_groups.end(), my_group);
  if (it == intact_groups.end()) return mine;
  const auto pos =
      static_cast<std::size_t>(it - intact_groups.begin());
  const auto a = static_cast<std::uint64_t>(s.groups());
  std::uint64_t dealt = 0;
  for (std::uint64_t p = 0; p < s.phases(); ++p) {
    const int owner = static_cast<int>(p % a);
    if (!std::binary_search(dead_groups.begin(), dead_groups.end(), owner))
      continue;
    if (dealt % intact_groups.size() == pos) mine.push_back(p);
    ++dealt;
  }
  return mine;
}

/// Which phase groups hand their phases over (donors) and which
/// recompute them (workers), ascending, for an agreed list of failed world
/// ranks and the voted stragglers `slow_groups` (ascending). A group that
/// lost a member is dead and always donates; straggling-but-intact groups
/// donate too, unless *every* intact group straggles — then nobody is
/// faster and the flag is moot. No workers means no intact replica is
/// left.
struct FailoverRoles {
  std::vector<int> donors;
  std::vector<int> workers;
};

[[nodiscard]] inline FailoverRoles failover_roles(
    const Schedule& s, const std::vector<int>& failed_ranks,
    const std::vector<int>& slow_groups) {
  FailoverRoles roles;
  std::vector<int> slow_intact;
  for (int g = 0; g < s.groups(); ++g) {
    bool dead = false;
    for (int r = 0; r < s.n1 && !dead; ++r)
      dead = std::binary_search(failed_ranks.begin(), failed_ranks.end(),
                                g * s.n1 + r);
    const bool slow =
        std::binary_search(slow_groups.begin(), slow_groups.end(), g);
    (dead ? roles.donors : slow ? slow_intact : roles.workers).push_back(g);
  }
  if (roles.workers.empty()) {
    roles.workers = std::move(slow_intact);
  } else {
    roles.donors.insert(roles.donors.end(), slow_intact.begin(),
                        slow_intact.end());
    std::sort(roles.donors.begin(), roles.donors.end());
  }
  return roles;
}

/// Validate and build a schedule. Unlike the paper's exposition (which
/// assumes N1 | N and N2 | 2^k), non-divisible configurations are accepted:
/// the last phase is short and groups take a near-equal share of phases.
[[nodiscard]] inline Schedule make_schedule(int k, double epsilon,
                                            int n_ranks, int n1,
                                            std::uint32_t n2) {
  MIDAS_REQUIRE(k >= 1 && k <= kMaxK, "k must be in [1,28]");
  MIDAS_REQUIRE(n_ranks >= 1, "N must be positive");
  MIDAS_REQUIRE(n1 >= 1 && n1 <= n_ranks, "N1 must be in [1,N]");
  MIDAS_REQUIRE(n_ranks % n1 == 0, "N1 must divide N");
  MIDAS_REQUIRE(n2 >= 1, "N2 must be positive");
  Schedule s;
  s.k = k;
  s.rounds = rounds_for_epsilon(epsilon);
  s.n_ranks = n_ranks;
  s.n1 = n1;
  s.n2 = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(n2, s.iterations()));
  return s;
}

}  // namespace midas::core
