// Scenario runner CLI: runs a seeded WorkloadSpec through the scenario
// engine and writes the flight-recorder journal, optionally checking
// invariants and printing the SLO table. The replay workflow:
//
//   scenario_runner --seed 7 --ticks 200 --jobs 100000 --workers 8
//       --out journal.qsj --check --slo
//   scenario_runner --spec "<the journal's H spec= header line>" ...
//       (or just: tools/replay_check.py journal.qsj)
//
// Exit codes: 0 = ok, 1 = usage, 2 = invariant violations.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.h"
#include "exec/state_vector_backend.h"
#include "obs/journal.h"
#include "sim/invariants.h"
#include "sim/scenario.h"
#include "sim/slo.h"
#include "sim/workload.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --spec <line>    full WorkloadSpec line (overrides "
         "--seed/--ticks/--jobs)\n"
      << "  --seed <n>       root seed of the standard scenario "
         "(default 7)\n"
      << "  --ticks <n>      virtual ticks (default 200)\n"
      << "  --jobs <n>       scale tenant rates to ~n total jobs "
         "(default 20000)\n"
      << "  --workers <n>    service worker threads (default 2)\n"
      << "  --max-batch <n>  plan-aware batch bound (default 16)\n"
      << "  --out <path>     write the journal here (default stdout)\n"
      << "  --check          run the invariant checker (exit 2 on "
         "violation)\n"
      << "  --slo            print the per-tenant SLO table to stderr\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_line;
  std::string out_path;
  std::uint64_t seed = 7;
  std::uint64_t ticks = 200;
  std::uint64_t jobs = 20000;
  bool check = false;
  bool slo = false;
  qs::sim::ScenarioOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string text = value();
      try {
        return qs::parse_number<std::uint64_t>(text, "scenario_runner",
                                               arg + " " + text);
      } catch (const std::runtime_error& e) {
        std::cerr << e.what() << "\n";
        std::exit(1);
      }
    };
    if (arg == "--spec") {
      spec_line = value();
    } else if (arg == "--seed") {
      seed = number();
    } else if (arg == "--ticks") {
      ticks = number();
    } else if (arg == "--jobs") {
      jobs = number();
    } else if (arg == "--workers") {
      options.workers = number();
    } else if (arg == "--max-batch") {
      options.max_batch = number();
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--slo") {
      slo = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    qs::sim::WorkloadSpec spec;
    if (!spec_line.empty()) {
      spec = qs::sim::WorkloadSpec::parse(spec_line);
    } else {
      spec = qs::sim::WorkloadSpec::standard(seed, ticks);
      spec.scale_to_jobs(jobs);
    }

    const qs::StateVectorBackend backend;
    qs::obs::Journal journal;
    const qs::sim::ScenarioReport report =
        qs::sim::run_scenario(backend, spec, journal, options);

    std::cerr << "scenario: submitted=" << report.submitted
              << " completed=" << report.completed
              << " failed=" << report.failed
              << " cancelled=" << report.cancelled
              << " expired=" << report.expired
              << " recalibrations=" << report.recalibrations
              << " snapshots=" << report.snapshots
              << " epoch=" << report.final_epoch
              << " events=" << journal.size() << "\n";
    if (!report.accounted()) {
      std::cerr << "scenario: job accounting does not balance\n";
      return 2;
    }

    if (out_path.empty()) {
      journal.write(std::cout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::cerr << "cannot open " << out_path << "\n";
        return 1;
      }
      journal.write(out);
    }

    if (check || slo) {
      std::istringstream is(journal.str());
      const qs::obs::Journal::Parsed parsed = qs::obs::Journal::read(is);
      if (slo) std::cerr << qs::sim::format_slo(qs::sim::compute_slo(parsed));
      if (check) {
        const std::vector<std::string> violations =
            qs::sim::check_journal(parsed);
        if (!violations.empty()) {
          std::cerr << violations.size() << " invariant violation(s):\n";
          for (const std::string& v : violations)
            std::cerr << "  " << v << "\n";
          return 2;
        }
        std::cerr << "invariants: clean\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "scenario_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
