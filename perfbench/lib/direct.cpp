#include "direct.hpp"

#include <stdexcept>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "core/motif.hpp"
#include "core/tree_template.hpp"
#include "core/witness.hpp"
#include "gf/gf256.hpp"
#include "partition/multilevel.hpp"
#include "service/integrity.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace svc = midas::service;
namespace core = midas::core;
using midas::gf::GF256;

namespace {

midas::graph::Graph tree_of(const svc::QuerySpec& q) {
  midas::graph::GraphBuilder b(static_cast<midas::graph::VertexId>(q.k));
  for (const auto& [a, c] : q.tree_edges) b.add_edge(a, c);
  return b.build();
}

void require_gf256(const svc::QuerySpec& q) {
  if (q.field_bits != 8)
    throw std::invalid_argument("the benchmark's direct calls run GF(2^8)");
}

core::DetectOptions detect_options(const svc::QuerySpec& q) {
  core::DetectOptions o;
  o.k = q.k;
  o.epsilon = q.epsilon;
  o.seed = q.seed;
  o.max_rounds = q.max_rounds;
  o.early_exit = q.early_exit;
  o.kernel = q.kernel;
  return o;
}

}  // namespace

Prepared prepare(midas::graph::Graph g, int n1) {
  Prepared p;
  p.part = midas::partition::multilevel_partition(g, n1);
  p.views = midas::partition::build_part_views(g, p.part);
  p.g = std::move(g);
  return p;
}

double boundary_frac(const Prepared& p) {
  std::uint64_t boundary = 0;
  for (const auto& v : p.views) boundary += v.boundary.size();
  return p.g.num_vertices() == 0
             ? 0.0
             : static_cast<double>(boundary) /
                   static_cast<double>(p.g.num_vertices());
}

svc::QueryResult run_views(const svc::QuerySpec& q, const Prepared& p) {
  require_gf256(q);
  core::MidasOptions opt;
  opt.k = q.k;
  opt.epsilon = q.epsilon;
  opt.seed = q.seed;
  opt.n_ranks = q.n_ranks;
  opt.n1 = q.n1;
  opt.n2 = q.n2;
  opt.max_rounds = q.max_rounds;
  opt.early_exit = q.early_exit;
  opt.kernel = q.kernel;
  const GF256 f;
  svc::QueryResult qr;
  auto take = [&](const core::MidasResult& r) {
    qr.found = r.found;
    qr.rounds_run = r.rounds_run;
    qr.found_round = r.found_round;
    qr.vtime = r.vtime;
    qr.engine_wall_s = r.wall_s;
  };
  switch (q.type) {
    case svc::QueryType::kPath:
      take(core::midas_kpath_views(p.views, opt, f));
      break;
    case svc::QueryType::kTree: {
      const core::TreeDecomposition td(tree_of(q), q.tree_root);
      take(core::midas_ktree_views(p.views, td, opt, f));
      break;
    }
    case svc::QueryType::kScan: {
      core::MidasScanResult r =
          core::midas_scan_views(p.views, q.weights, opt, f);
      qr.table = std::move(r.table);
      qr.rounds_run = q.rounds();
      qr.vtime = r.vtime;
      qr.engine_wall_s = r.wall_s;
      break;
    }
    case svc::QueryType::kMotif:
      take(core::midas_motif_views(p.views, q.colors, q.motif, opt, f));
      break;
  }
  qr.target_epsilon = q.epsilon;
  qr.achieved_epsilon = svc::achieved_epsilon(qr.found, qr.rounds_run);
  return qr;
}

svc::QueryResult run_seq(const svc::QuerySpec& q,
                         const midas::graph::Graph& g) {
  require_gf256(q);
  const GF256 f;
  const core::DetectOptions o = detect_options(q);
  svc::QueryResult qr;
  auto take = [&](const core::DetectResult& r) {
    qr.found = r.found;
    qr.rounds_run = r.rounds_run;
    qr.found_round = r.found_round;
  };
  switch (q.type) {
    case svc::QueryType::kPath:
      take(core::detect_kpath_seq(g, o, f));
      break;
    case svc::QueryType::kTree: {
      const core::TreeDecomposition td(tree_of(q), q.tree_root);
      take(core::detect_ktree_seq(g, td, o, f));
      break;
    }
    case svc::QueryType::kScan: {
      core::ScanOptions so;
      so.k = q.k;
      so.epsilon = q.epsilon;
      so.seed = q.seed;
      so.max_rounds = q.max_rounds;
      so.kernel = q.kernel;
      qr.table = core::detect_scan_seq(g, q.weights, so, f);
      qr.rounds_run = q.rounds();
      break;
    }
    case svc::QueryType::kMotif:
      take(core::detect_motif_seq(g, q.colors, q.motif, o, f));
      break;
  }
  qr.target_epsilon = q.epsilon;
  qr.achieved_epsilon = svc::achieved_epsilon(qr.found, qr.rounds_run);
  return qr;
}

double seq_kpath_seconds(const midas::graph::Graph& g, int k,
                         std::uint64_t seed) {
  core::DetectOptions o;
  o.k = k;
  o.seed = seed;
  o.max_rounds = 1;
  o.early_exit = false;
  midas::Timer t;
  const core::DetectResult r = core::detect_kpath_seq(g, o, GF256{});
  const double s = t.elapsed_s();
  if (r.rounds_run != 1)
    throw std::runtime_error("sequential k-path ran the wrong round count");
  return s;
}

bool witness_valid(const svc::QuerySpec& q, const svc::QueryResult& r,
                   const midas::graph::Graph& g) {
  switch (q.type) {
    case svc::QueryType::kPath:
      return core::validate_kpath(g, r.witness, q.k);
    case svc::QueryType::kTree:
      return core::validate_tree_embedding(g, tree_of(q), r.witness);
    case svc::QueryType::kScan:
      return core::validate_connected_subgraph(g, q.weights, r.witness_j,
                                               r.witness_z, r.witness);
    case svc::QueryType::kMotif:
      return core::validate_motif(g, q.colors, q.motif, r.witness);
  }
  return false;
}

}  // namespace perfbench
