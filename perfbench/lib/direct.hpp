// Direct calls into the layers below the service: partition/views
// preparation, the distributed core engines, the sequential detectors and
// the exact witness validators. engine-large times these calls; the wire
// workloads use them to re-check served answers.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"
#include "service/query.hpp"

namespace perfbench {

/// A graph with its multilevel partition and per-part views for one n1.
struct Prepared {
  midas::graph::Graph g;
  midas::partition::Partition part;
  std::vector<midas::partition::PartView> views;
};
[[nodiscard]] Prepared prepare(midas::graph::Graph g, int n1);

/// Share of vertices whose values some other part consumes.
[[nodiscard]] double boundary_frac(const Prepared& p);

/// One distributed core call (core::midas_*_views in GF(2^8)) with the
/// spec's options; the answer is filled exactly as the service fills it.
[[nodiscard]] midas::service::QueryResult run_views(
    const midas::service::QuerySpec& q, const Prepared& p);

/// The same query through the single-threaded sequential detector.
[[nodiscard]] midas::service::QueryResult run_seq(
    const midas::service::QuerySpec& q, const midas::graph::Graph& g);

/// Seconds for one round of the single-threaded sequential k-path
/// detector (kernel chosen automatically): the per-vertex baseline.
[[nodiscard]] double seq_kpath_seconds(const midas::graph::Graph& g, int k,
                                       std::uint64_t seed);

/// For a certified "yes": is the witness an exact instance of the query?
[[nodiscard]] bool witness_valid(const midas::service::QuerySpec& q,
                                 const midas::service::QueryResult& r,
                                 const midas::graph::Graph& g);

}  // namespace perfbench
