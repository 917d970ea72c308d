// Result collection, statistics and the one-line JSON report shared by
// every benchmark workload.
//
// The metric tables below are the benchmark's single list of metric
// names and units; BENCHMARK.json repeats them and self_test.py checks
// that the two agree. An untraced run prints every end-to-end metric, a
// traced run every per-layer metric. A per-layer metric whose layer the
// workload never calls prints 0 (no calls, no time).
#ifndef QS_PERFBENCH_REPORT_H
#define QS_PERFBENCH_REPORT_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host_speed.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricDef kPerLayer[] = {
    // sim / common / serve / obs (scenario_mix; serve also
    // variational_loop)
    {"sim.make_job_us", "us"},
    {"common.fingerprint_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.drain_us_per_job", "us"},
    {"serve.batches", "count"},
    {"serve.mean_batch", "jobs"},
    {"serve.queue_wait_us", "us"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.overhead_us", "us"},
    {"obs.journal_events", "count"},
    {"obs.journal_bytes", "bytes"},
    {"obs.journal_export_s", "s"},
    {"obs.trace.spans", "count"},
    {"obs.trace.dropped_spans", "count"},
    // compiler / exec / qudit / calib (variational_loop)
    {"compiler.transpile_ms", "ms"},
    {"compiler.transpile_hits", "count"},
    {"compiler.transpile_misses", "count"},
    {"exec.lower_ms", "ms"},
    {"exec.execute_us", "us"},
    {"exec.plan_hits", "count"},
    {"exec.plan_misses", "count"},
    {"qudit.kernel_specialized", "count"},
    {"qudit.kernel_generic", "count"},
    {"qudit.kernel_scalar", "count"},
    {"qudit.kernel_batched", "count"},
    {"calib.recalibrate_us", "us"},
    {"calib.drift_advance_us", "us"},
    {"calib.stale_hits", "count"},
    // dynamics + qrc (qrc_series)
    {"qrc.step_ms", "ms"},
    {"gates.displacement_us", "us"},
    {"qrc.features_us", "us"},
    {"qrc.readout_fit_ms", "ms"},
    // the traced run's own cost, against untraced rounds of the same
    // process
    {"bench.untraced_tp_per_s", "1/s"},
    {"bench.traced_tp_per_s", "1/s"},
    {"bench.trace_overhead_pct", "%"},
};

/// What a workload is asked to do.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< minimum timed time per run
  bool trace = false;     ///< per-layer run instead of end-to-end
  bool smoke = false;     ///< tiny sizes (self-test only)
  /// Self-test fault injection: "journal" corrupts a replayed journal,
  /// "digest" a result digest, before the correctness comparison.
  std::string corrupt;
};

/// Collects one run's metrics, operation counts and correctness.
class Report {
 public:
  /// Records a metric; the name must be in kEndToEnd or kPerLayer.
  void set(const std::string& name, double value);
  /// A recorded metric's value (0 when unset).
  double value(const std::string& name) const;
  /// Counts operations the workload attempted, and how many failed.
  void count(std::uint64_t attempted, std::uint64_t failed);
  /// Marks the run incorrect (the reason goes to stderr).
  void fail(const std::string& why);
  /// Checks `ok`, failing with `why` when it does not hold.
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  bool correct() const { return correct_; }

  /// Per-layer values of one traced pass, keyed by metric name.
  using Layers = std::map<std::string, double>;
  /// Records, for every metric the passes measured, its median across
  /// them.
  void set_medians(const std::vector<Layers>& passes);

  /// Records the traced run's own cost: the median over its passes of
  /// untraced over traced throughput, each pair taken back to back so a
  /// change of host speed during the run cancels in the ratio.
  void set_overhead(const std::vector<double>& untraced_tp,
                    const std::vector<double>& traced_tp);

  /// The closing JSON line: every metric of the run's table, in order.
  std::string json(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// --- timing and statistics -------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Runs `cold_start` (which returns its seconds), each time right after
/// the reference kernel, until `setups` holds `total` x `done` samples
/// rescaled to the reference speed; `done` is the share of the timed
/// window behind the run (clipped to 1). Called after every timed round
/// and once more with 1 at the end, it spreads the cold starts evenly
/// over the window, so the setup_s median sees the host the rounds saw
/// rather than the process's first half second.
template <class ColdStart>
void spread_setups(std::vector<double>& setups, int total, double done,
                   ColdStart&& cold_start) {
  const double due = total * (done < 1.0 ? done : 1.0);
  while (static_cast<double>(setups.size()) < due) {
    const double reference_s = reference_seconds();
    setups.push_back(at_reference_speed(cold_start(), reference_s));
  }
}

/// Runs the untraced and the traced side of the traced run's pass number
/// `pass`, untraced first on even passes and traced first on odd ones, so
/// whatever the first of two back-to-back runs pays is shared alike.
template <class Untraced, class Traced>
void alternate(int pass, Untraced&& untraced, Traced&& traced) {
  if (pass % 2 == 0) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
}

/// Prints `values` on one '#' line of stdout, so a reader of the run's
/// output sees the samples behind a median.
void print_samples(const char* label, const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB. The workloads
/// read it after set-up and one complete warm-up round, before the timed
/// rounds: a user runs one scenario per process, and repeated rounds in
/// one process add allocator fragmentation that differs from run to run
/// (a scenario_mix process peaks at 29 MB after one replay, at 40-51 MB
/// after 30 s of replays).
double peak_rss_mb();

}  // namespace perfbench

#endif  // QS_PERFBENCH_REPORT_H
