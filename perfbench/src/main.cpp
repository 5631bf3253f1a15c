// Benchmark program: one workload per invocation.
//
//   perfbench --workload <stream-lossy|control-churn|scale-sparse>
//             --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints one line per metric for people, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics on an untraced run, the per-layer metrics on a traced
// one. Exits 1 when an output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "stats.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  return 2;
}

bool parse_seed(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-';
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && *out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string workload, trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    double v = 0.0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && parse_seed(value, &opts.seed)) {
      have_seed = true;
    } else if (arg == "--seconds" && parse_number(value, &v)) {
      opts.seconds = v;
      have_seconds = true;
    } else if (arg == "--trace" && parse_number(value, &v) && v <= 1.0) {
      opts.trace = v == 1.0;
      have_trace = true;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  Run run(opts);
  Outcome out;
  try {
    if (!run_workload(workload, run, &out)) {
      std::cerr << "unknown workload: " << workload << "\n";
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << workload << " threw: " << e.what() << "\n";
    return 1;
  }

  const std::vector<Metric> metrics = run.metrics(out);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) out.fail(m.name + " is not a finite number");
  }
  std::cout << "workload " << workload << " seed " << opts.seed << ", "
            << run.episodes() << " episodes, " << out.plan_ms.size()
            << " planning calls, digest-fnv " << std::hex << out.digest()
            << std::dec << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (!opts.trace) {
    out.extras.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    for (const Metric& m : out.extras) {
      std::cout << "  (" << workload << ") " << m.name << " = " << m.value
                << " " << m.unit << "\n";
    }
  }
  for (const std::string& p : out.problems) {
    std::cerr << "check failed: " << p << "\n";
  }
  if (opts.trace && !trace_out.empty() &&
      !run.tracer().write_jsonl(trace_out)) {
    std::cerr << "cannot write " << trace_out << "\n";
    return 1;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::cout << result_json(correct, out.attempted, out.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
