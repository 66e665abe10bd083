// Microbenchmark: scalar vs bit-sliced detection kernels.
//
// Sequential rows run the k-path detector once per (field, k, kernel) on
// the same ER graph and report ns per (iteration x vertex) — the unit the
// bit-sliced engine improves, since it evaluates 64 iterations per block
// (see src/gf/bitsliced.hpp and docs/ALGORITHM.md section 6). Both kernels
// are cross-checked for bit-identical round accumulators before timing is
// reported, so a speedup can never come from computing something else.
//
// Distributed rows run the engines the service runs — one round of path,
// tree, scan and motif at N = 4, N1 = 2 on G(dist_n, 4 dist_n), the
// engine-large query shapes — at N2 = 16 and 64, under each kernel, and
// name the kernel a kAuto run of the same query reports it resolved to
// (core/kernel.hpp). The "GF256" rows multiply byte rows with GFNI where
// the host has it; the "GF256-table" rows force the table rows, so kAuto
// resolves as on a host without GFNI; "GFSmall(7)" rows run 16-bit table
// rows. All three runs must agree on the answer, the virtual time, the op
// charges and the halo bytes.
//
//   ./bench_bitsliced_kernels [--n=128] [--kmax=16] [--seed=1]
//                             [--dist-n=4000] [--reps=3]
//                             [--json=BENCH_kernels.json]
//
// The JSON file is the committed baseline at the repo root; regenerate it
// from a quiet machine when the kernels change. --dist-n=0 skips the
// distributed rows.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "core/motif.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct Row {
  std::string field;
  int bits;
  int k;
  double scalar_ns;     // ns per (iteration x vertex), scalar kernel
  double bitsliced_ns;  // ns per (iteration x vertex), bit-sliced kernel
  double speedup;
  bool exact;  // round accumulators matched bit-for-bit
  const char* auto_kernel;  // what --kernel=auto resolves to for this field
};

template <typename F>
double time_kernel(const midas::graph::Graph& g,
                   const midas::core::DetectOptions& opt, const F& f,
                   std::vector<std::uint64_t>* totals) {
  using namespace midas;
  // One warm-up round (tables, page faults), then the timed run.
  core::DetectOptions warm = opt;
  warm.max_rounds = 1;
  (void)core::detect_kpath_seq(g, warm, f);
  Timer t;
  const auto res = core::detect_kpath_seq(g, opt, f);
  const double ns = t.elapsed_s() * 1e9;
  *totals = res.round_totals;
  const double work = static_cast<double>(res.iterations) *
                      static_cast<double>(g.num_vertices());
  return ns / work;
}

template <typename F>
Row run_pair(const midas::graph::Graph& g, const std::string& name, int bits,
             int k, std::uint64_t seed, const F& f) {
  using namespace midas;
  core::DetectOptions opt;
  opt.k = k;
  opt.seed = seed;
  opt.max_rounds = 1;
  opt.early_exit = false;
  std::vector<std::uint64_t> ts, tb;
  opt.kernel = core::Kernel::kScalar;
  const double s = time_kernel(g, opt, f, &ts);
  opt.kernel = core::Kernel::kBitsliced;
  const double b = time_kernel(g, opt, f, &tb);
  return {name,  bits, k, s, b, s / b, ts == tb,
          core::kernel_name(f, core::Kernel::kAuto)};
}

/// GF(2^8) on the table row primitives the engines call (the convolution
/// and axpy): the scalar kernel a host without GFNI runs, and the field
/// kAuto resolves for as such.
struct GF256Table : midas::gf::GF256 {
  [[nodiscard]] bool rows_on_gfni() const noexcept { return false; }
  void mul_add_conv(value_type* dst, const value_type* a, const value_type* b,
                    std::size_t z, std::size_t n) const noexcept {
    midas::gf::detail256::mul_add_conv_table(dst, a, b, z, n);
  }
  void axpy(value_type* dst, value_type s, const value_type* b,
            std::size_t n) const noexcept {
    midas::gf::detail256::axpy_table(dst, s, b, n);
  }
};

struct DistRow {
  std::string field;
  std::string type;
  int k;
  std::uint32_t n2;
  double scalar_ms;     // median wall time of one query, scalar kernel
  double bitsliced_ms;  // the same, bit-sliced kernel
  const char* auto_kernel;  // the kernel a kAuto run resolved to
  bool exact;  // answer, virtual time, op charges and halo bytes matched
};

/// One distributed query's kernel-independent outputs, and the kernel the
/// engine ran them on.
struct Outcome {
  std::vector<std::uint8_t> answer;
  double vtime = 0.0;
  std::uint64_t bytes = 0, ops = 0;
  midas::core::Kernel kernel = midas::core::Kernel::kScalar;
  [[nodiscard]] bool same_outputs(const Outcome& o) const {
    return answer == o.answer && vtime == o.vtime && bytes == o.bytes &&
           ops == o.ops;
  }
};

struct DistInput {
  std::vector<midas::partition::PartView> views;
  std::vector<std::uint32_t> weights, colors, motif;
  midas::graph::Graph tree;
};

template <typename F>
Outcome run_query(const DistInput& in, const std::string& type,
                  const midas::core::MidasOptions& opt, const F& f) {
  using namespace midas;
  Outcome o;
  auto take = [&](const core::MidasResult& r) {
    o.answer = {r.found, static_cast<std::uint8_t>(r.found_round + 1)};
    o.vtime = r.vtime;
    o.bytes = r.total_stats.bytes_sent;
    o.ops = r.total_stats.compute_ops;
    o.kernel = r.kernel;
  };
  if (type == "path") {
    take(core::midas_kpath_views(in.views, opt, f));
  } else if (type == "tree") {
    take(core::midas_ktree_views(in.views, core::TreeDecomposition(in.tree, 0),
                                 opt, f));
  } else if (type == "motif") {
    take(core::midas_motif_views(in.views, in.colors, in.motif, opt, f));
  } else {
    const auto r = core::midas_scan_views(in.views, in.weights, opt, f);
    for (const auto& row : r.table.feasible)
      o.answer.insert(o.answer.end(), row.begin(), row.end());
    o.vtime = r.vtime;
    o.bytes = r.total_stats.bytes_sent;
    o.ops = r.total_stats.compute_ops;
    o.kernel = r.kernel;
  }
  return o;
}

/// Median wall ms of `reps` runs of one query under `kernel`.
template <typename F>
double time_query(const DistInput& in, const std::string& type,
                  midas::core::MidasOptions opt, midas::core::Kernel kernel,
                  int reps, const F& f, Outcome* out) {
  opt.kernel = kernel;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    midas::Timer t;
    *out = run_query(in, type, opt, f);
    ms.push_back(t.elapsed_ms());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Path, tree, scan and motif at the engine-large shapes, N2 in {16, 64},
/// on GF256 with and without GFNI rows and on GFSmall(7).
std::vector<DistRow> run_distributed(midas::graph::VertexId n,
                                     std::uint64_t seed, int reps) {
  using namespace midas;
  Xoshiro256 rng(seed);
  const graph::Graph g = graph::erdos_renyi_gnm(n, 4ULL * n, rng);
  DistInput in;
  in.views = partition::build_part_views(g, partition::multilevel_partition(g, 2));
  in.weights.resize(n);
  in.colors.resize(n);
  for (auto& w : in.weights) w = static_cast<std::uint32_t>(rng.below(5));
  for (auto& c : in.colors) c = static_cast<std::uint32_t>(rng.below(3));
  graph::GraphBuilder tb(11);  // the binary tree on 11 vertices
  for (graph::VertexId v = 1; v < 11; ++v) tb.add_edge((v - 1) / 2, v);
  in.tree = tb.build();
  for (int c = 0; c < 8; ++c) in.motif.push_back(static_cast<std::uint32_t>(c % 3));

  const struct {
    const char* type;
    int k;
  } shapes[] = {{"path", 12}, {"tree", 11}, {"scan", 5}, {"motif", 8}};
  std::vector<DistRow> rows;
  for (const std::uint32_t n2 : {16u, 64u})
    for (const auto& sh : shapes) {
      core::MidasOptions opt;
      opt.k = sh.k;
      opt.seed = seed;
      opt.n_ranks = 4;
      opt.n1 = 2;
      opt.n2 = n2;
      opt.max_rounds = 1;
      opt.early_exit = false;
      // One untimed kAuto run per field names the kernel the engine picks.
      auto auto_run = [&](const auto& f) {
        core::MidasOptions a = opt;
        a.kernel = core::Kernel::kAuto;
        return run_query(in, sh.type, a, f);
      };
      Outcome os, ot, ob, ws, wb;
      const gf::GF256 f;
      const double s =
          time_query(in, sh.type, opt, core::Kernel::kScalar, reps, f, &os);
      const double t = time_query(in, sh.type, opt, core::Kernel::kScalar,
                                  reps, GF256Table{}, &ot);
      const double b =
          time_query(in, sh.type, opt, core::Kernel::kBitsliced, reps, f, &ob);
      const Outcome oa = auto_run(f), ota = auto_run(GF256Table{});
      const bool exact = os.same_outputs(ot) && os.same_outputs(ob) &&
                         os.same_outputs(oa) && os.same_outputs(ota);
      rows.push_back({"GF256", sh.type, sh.k, n2, s, b,
                      core::kernel_name(oa.kernel), exact});
      rows.push_back({"GF256-table", sh.type, sh.k, n2, t, b,
                      core::kernel_name(ota.kernel), exact});
      const gf::GFSmall f7(7);
      const double ss =
          time_query(in, sh.type, opt, core::Kernel::kScalar, reps, f7, &ws);
      const double sb = time_query(in, sh.type, opt, core::Kernel::kBitsliced,
                                   reps, f7, &wb);
      const Outcome wa = auto_run(f7);
      rows.push_back({"GFSmall(7)", sh.type, sh.k, n2, ss, sb,
                      core::kernel_name(wa.kernel),
                      ws.same_outputs(wb) && ws.same_outputs(wa)});
    }
  return rows;
}

void write_json(const std::string& path, midas::graph::VertexId n,
                std::uint64_t seed, const std::vector<Row>& rows,
                midas::graph::VertexId dist_n,
                const std::vector<DistRow>& dist) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"bitsliced_kernels\",\n");
  // The machine the numbers came from: which row and transpose paths ran
  // decides the distributed rows and what kAuto picked on them.
  std::fprintf(out,
               "  \"hardware_threads\": %u,\n  \"gfni_rows\": %s,\n"
               "  \"avx512_transposes\": %s,\n",
               std::thread::hardware_concurrency(),
               midas::gf::gfni_rows() ? "true" : "false",
               midas::gf::detail_bs::avx512_transposes() ? "true" : "false");
  std::fprintf(out, "  \"unit\": \"ns per (iteration x vertex)\",\n");
  std::fprintf(out, "  \"n\": %llu,\n  \"seed\": %llu,\n  \"results\": [\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"field\": \"%s\", \"bits\": %d, \"k\": %d, "
                 "\"scalar_ns\": %.4f, \"bitsliced_ns\": %.4f, "
                 "\"speedup\": %.2f, \"bit_exact\": %s, "
                 "\"auto_kernel\": \"%s\"}%s\n",
                 r.field.c_str(), r.bits, r.k, r.scalar_ns, r.bitsliced_ns,
                 r.speedup, r.exact ? "true" : "false", r.auto_kernel,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"distributed_unit\": \"ms per query (one round, N=4, "
               "N1=2, G(%llu, %llu))\",\n  \"distributed\": [\n",
               static_cast<unsigned long long>(dist_n),
               4ULL * static_cast<unsigned long long>(dist_n));
  for (std::size_t i = 0; i < dist.size(); ++i) {
    const DistRow& r = dist[i];
    std::fprintf(out,
                 "    {\"field\": \"%s\", \"type\": \"%s\", \"k\": %d, "
                 "\"n2\": %u, \"scalar_ms\": %.1f, \"bitsliced_ms\": %.1f, "
                 "\"auto_kernel\": \"%s\", \"bit_exact\": %s}%s\n",
                 r.field.c_str(), r.type.c_str(), r.k, r.n2, r.scalar_ms,
                 r.bitsliced_ms, r.auto_kernel, r.exact ? "true" : "false",
                 i + 1 < dist.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace midas;
  const Args args(argc, argv);
  const auto n = static_cast<graph::VertexId>(args.get_int("n", 128));
  const int kmax = static_cast<int>(args.get_int("kmax", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string json = args.get("json", "BENCH_kernels.json");
  const auto dist_n =
      static_cast<graph::VertexId>(args.get_int("dist-n", 4000));
  const int reps = std::max<int>(1, static_cast<int>(args.get_int("reps", 3)));

  bench::print_figure_header(
      "Bit-sliced kernel speedup",
      "scalar vs 64-lane bit-sliced k-path inner loop");
  std::printf("sequential auto kernel: GFSmall(7) -> %s (l=7), GF256 -> %s "
              "(l=8); GFNI byte rows: %s\n\n",
              core::kernel_name(gf::GFSmall(7), core::Kernel::kAuto),
              core::kernel_name(gf::GF256{}, core::Kernel::kAuto),
              gf::gfni_rows() ? "yes" : "no");
  const auto ds = bench::make_dataset("random", n, seed);

  std::vector<Row> rows;
  for (const int k : {8, 12, 16}) {
    if (k > kmax) continue;
    // The paper's width for this k is l = 3 + ceil(log2 k); k = 12 lands
    // on l = 7, the acceptance point for the >= 5x kernel speedup.
    rows.push_back(run_pair(ds.graph, "GFSmall(7)", 7, k, seed,
                            gf::GFSmall(7)));
    rows.push_back(run_pair(ds.graph, "GF256", 8, k, seed, gf::GF256{}));
  }

  Table table({"field", "k", "scalar_ns", "bitsliced_ns", "speedup",
               "bit_exact"});
  for (const Row& r : rows)
    table.add_row({r.field, Table::cell(std::int64_t{r.k}),
                   Table::cell(r.scalar_ns, 4), Table::cell(r.bitsliced_ns, 4),
                   Table::cell(r.speedup, 2), r.exact ? "yes" : "NO"});
  table.print("sequential k-path, one round; ns per (iteration x vertex), "
              "lower is better");

  std::vector<DistRow> dist;
  if (dist_n > 0) {
    dist = run_distributed(dist_n, seed, reps);
    Table dt({"field", "type", "k", "N2", "scalar_ms", "bitsliced_ms", "auto",
              "bit_exact"});
    for (const DistRow& r : dist)
      dt.add_row({r.field, r.type, Table::cell(std::int64_t{r.k}),
                  Table::cell(std::int64_t{r.n2}), Table::cell(r.scalar_ms, 5),
                  Table::cell(r.bitsliced_ms, 5), r.auto_kernel,
                  r.exact ? "yes" : "NO"});
    dt.print("distributed, one round, N=4, N1=2; median ms per query over "
             "--reps runs, lower is better");
  }
  write_json(json, n, seed, rows, dist_n, dist);
  return 0;
}
