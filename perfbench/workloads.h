// The benchmark's three workloads. Each one runs in its own process,
// derives every input from Options::seed, and fills a Report: the
// end-to-end metrics on an untraced run, the per-layer breakdown on a
// traced one (see README.md for why each workload exists).
#ifndef QS_PERFBENCH_WORKLOADS_H
#define QS_PERFBENCH_WORKLOADS_H

#include <cstddef>

#include "report.h"

namespace perfbench {

/// sim::run_scenario on the standard four-tenant mix, journal on.
void scenario_mix(const Options& options, Report& report);
/// Two closed-loop QAOA clients on a calibrated, drifting device.
void variational_loop(const Options& options, Report& report);
/// Oscillator-reservoir NARMA2 series plus the ridge readout fit.
void qrc_series(const Options& options, Report& report);

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
  /// Threads the workload keeps busy, generator included (never more
  /// than the 4 cores the figures were taken on).
  std::size_t threads;
};

/// scenario_mix: scenario thread + 2 workers; variational_loop: 2
/// clients + 2 workers (the main thread only waits on phase barriers);
/// qrc_series: one thread.
inline constexpr Workload kWorkloads[] = {
    {"scenario_mix", scenario_mix, 3},
    {"variational_loop", variational_loop, 4},
    {"qrc_series", qrc_series, 1},
};

}  // namespace perfbench

#endif  // QS_PERFBENCH_WORKLOADS_H
