// Host-speed normalisation.
//
// The benchmark's host is a virtual machine whose speed drifts with the
// load its neighbours put on the physical machine: the same single-
// threaded code runs anywhere from 1x to 1.6x its best time, in regimes
// that last from seconds to many minutes, and CPU time tracks wall time
// (it is not stolen time the guest could subtract). Statistics inside a
// run cannot remove a regime that lasts the whole run, so every timing the
// end-to-end metrics are built from is paired with a fixed reference
// kernel timed right next to it, and rescaled to the speed at which the
// reference takes kReferenceSeconds. The kernel lives here, not in src/,
// so no change to the program can change it.
#ifndef QS_PERFBENCH_HOST_SPEED_H
#define QS_PERFBENCH_HOST_SPEED_H

namespace perfbench {

/// The reference kernel's time on the machine the figures were taken on
/// (4-core KVM guest, Intel Xeon, gcc 12.2) when that host ran fast, so
/// rescaled times read close to what a quiet host gives. Only the scale
/// of the reported times depends on it.
inline constexpr double kReferenceSeconds = 2.8e-4;

/// Runs the reference kernel -- small dense complex matrix products, the
/// kind of work of the dynamics and kernel layers -- five times back to
/// back on the calling thread and returns the median run's seconds. A
/// kernel that also walked a table too large for the caches tracked the
/// host no better on scenario_mix and worse on qrc_series.
double reference_seconds();

/// `seconds` of work rescaled to the reference host speed, given the
/// reference kernel's time measured next to that work.
inline double at_reference_speed(double seconds, double reference_s) {
  return seconds * kReferenceSeconds / reference_s;
}

/// Runs `pass`, which returns a throughput, between two runs of the
/// reference kernel, and returns that throughput rescaled to the
/// reference host speed.
template <class Pass>
double rate_at_reference_speed(Pass&& pass) {
  const double before_s = reference_seconds();
  const double per_s = pass();
  const double reference_s = 0.5 * (before_s + reference_seconds());
  return per_s * reference_s / kReferenceSeconds;
}

}  // namespace perfbench

#endif  // QS_PERFBENCH_HOST_SPEED_H
