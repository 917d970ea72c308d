// Benchmark program: one workload per process.
//
//   qs_perfbench --workload <scenario_mix|variational_loop|qrc_series>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--smoke] [--corrupt journal|digest]
//
// Prints a provenance header (lines starting with '#'), then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit codes: 0 = reported (check "correct"), 1 = the
// workload threw, 2 = usage, 3 = not a Release build.
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--smoke] [--corrupt journal|digest]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string name;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--workload" && has_value) {
        name = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--corrupt" && has_value) {
        options.corrupt = argv[++i];
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (options.seconds <= 0.0) return usage(argv[0]);

  const perfbench::Workload* workload = nullptr;
  for (const perfbench::Workload& w : perfbench::kWorkloads)
    if (name == w.name) workload = &w;
  if (workload == nullptr) return usage(argv[0]);

  const char* build_type = QS_PERFBENCH_BUILD_TYPE;
  std::cout << "# workload " << workload->name << "  seed " << options.seed
            << "  seconds " << options.seconds << "  trace "
            << (options.trace ? 1 : 0) << (options.smoke ? "  smoke" : "")
            << "\n# nproc " << std::thread::hardware_concurrency()
            << "  threads " << workload->threads << "\n# compiler "
            << QS_PERFBENCH_COMPILER << "  CMAKE_BUILD_TYPE " << build_type
            << std::endl;
  if (std::strcmp(build_type, "Release") != 0) {
    std::cerr << "perfbench: refusing to report from a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  perfbench::Report report;
  try {
    workload->run(options, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << report.json(options.trace) << std::endl;
  return 0;
}
