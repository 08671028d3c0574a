// plu_perfbench: one run of one workload.
//
//   plu_perfbench --workload cold|refactor|service --seed N --seconds S
//                 [--trace 0|1] [--spans FILE]
//
// Prints JSON lines on stdout: one "build" record (host and build, and
// whether the build may be timed at all), one line per metric, and a final
// "result" record with the ops attempted and failed.  run.py builds this
// binary and folds its lines into the benchmark's result object.  Any
// error -- a failed warm-up, a replay that differs from the library --
// exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void print_build_record() {
  plu::bench::JsonRecord r;
  r.field("kind", "build")
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("compiler", __VERSION__)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("cxx_flags", PERFBENCH_CXX_FLAGS)
      .field("plu_native", 0)  // this project never adds -march=native
      .field("sanitizer", sanitized() ? "yes" : "none")
      .field("optimized", optimized() ? 1 : 0)
      .field("valid", optimized() && !sanitized() ? 1 : 0);
  std::printf("%s\n", r.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: plu_perfbench --workload cold|refactor|service "
               "--seed N --seconds S [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else if (arg == "--spans") {
      spans = val;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !(seconds > 0.0)) return usage();

  print_build_record();
  std::fflush(stdout);
  try {
    const perfbench::Result res =
        trace ? perfbench::run_traced(workload, seed, seconds, spans)
              : perfbench::run_end_to_end(workload, seed, seconds);
    for (const perfbench::Metric& m : res.metrics) {
      std::printf("%s\n", perfbench::metric_line(m.name, m.unit, m.value).c_str());
    }
    plu::bench::JsonRecord r;
    r.field("kind", "result")
        .field("attempted", res.attempted)
        .field("failed", res.failed);
    std::printf("%s\n", r.str().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plu_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
