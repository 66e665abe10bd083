// perfbench: one workload per invocation.
//
//   perfbench --workload engine-large|wire-small|wire-mix --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints notes and one "metric" line per metric (name, value, unit,
// workload), then, as the last line, the JSON result object. Exits 1 when
// any answer check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine-large|wire-small|wire-mix --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string spans_out;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") args.workload = val;
      else if (key == "--seed") args.seed = std::stoull(val);
      else if (key == "--seconds") args.seconds = std::stod(val);
      else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
        have_trace = true;
      }
      else if (key == "--spans-out") spans_out = val;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) usage("options take one value each");
  if (!have_trace || !(args.seconds > 0)) usage("missing --trace or --seconds");

  perfbench::Outcome out;
  try {
    if (args.workload == "engine-large")
      out = perfbench::run_engine_large(args);
    else if (args.workload == "wire-small" || args.workload == "wire-mix")
      out = perfbench::run_wire(args);
    else
      usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& n : out.notes)
    std::printf("note %s: %s\n", args.workload.c_str(), n.c_str());
  // Not a gated metric: it is 0 on a correct run, and the counts behind
  // it are the result's "attempted" and "failed".
  std::printf("note %s: failed_frac = %.6g ratio (%llu of %llu)\n",
              args.workload.c_str(),
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& m : out.ledger.metrics())
    std::printf("metric %s %s = %.6g %s\n", args.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  if (!spans_out.empty()) {
    if (std::FILE* f = std::fopen(spans_out.c_str(), "w")) {
      const std::string json = out.spans.chrome_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::printf("%s\n",
              out.ledger.result_json(out.correct, out.attempted, out.failed)
                  .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
