// qrc_series: a seeded NARMA2 series through OscillatorReservoir::run,
// then the ridge readout fit (evaluate_readout), on one thread.
//
// The reservoir is 2 modes x 6 levels (kerr 0.6, kappa 0.35, 16 neuron
// features), as in the slow tier-1 reservoir test. All of its time is
// dense Lindblad RK4 in src/dynamics; it never calls serve, compiler or
// qudit, so work on those layers should leave it unchanged. (The paper's
// 9-level reservoir runs ~20x slower per step, too slow to repeat.)
//
// Untraced: the warm-up series goes through run() and gives the reference
// feature digest; each timed series runs the same loop input by input,
// so every input step is timed, and rescaled to the reference host speed
// (host_speed.h), on its own.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "gates/bosonic.h"
#include "linalg/real_matrix.h"
#include "qrc/readout.h"
#include "qrc/reservoir.h"
#include "qrc/tasks.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qs;

constexpr double kRidge = 1e-5;
/// NARMA inputs are uniform on [0, 0.5].
constexpr double kSetupInput = 0.25;
/// Test NMSE must stay below this (1 = predicting the mean). Over 160
/// seeds the full-size series gave a median of 0.34 and a maximum of
/// 1.23; broken dynamics give garbage features and a far larger error.
constexpr double kNmseCeiling = 3.0;

struct Sizes {
  int steps;    ///< input steps per series
  int washout;  ///< leading rows the readout ignores
  int train;    ///< rows it is fitted on (the rest test it)
  int setups;   ///< cold starts behind the setup_s median
  int min_rounds;    ///< timed series at least
  int trace_passes;  ///< per-layer passes of a traced run
};

Sizes sizes_for(const Options& options) {
  if (options.smoke) return {30, 5, 15, 1, 2, 1};
  return {100, 10, 55, 31, 3, 7};
}

ReservoirConfig reservoir_config() {
  ReservoirConfig cfg;
  cfg.modes = 2;
  cfg.levels = 6;
  cfg.coupling = 1.0;
  cfg.kappa = 0.35;
  cfg.kerr = 0.6;
  cfg.input_gain = 1.0;
  cfg.tau = 1.0;
  cfg.rk4_steps_per_tau = 10;
  cfg.feature_cutoff = 4;  // 4^2 = 16 neurons
  return cfg;
}

std::uint64_t matrix_digest(const RMatrix& m) {
  std::uint64_t h = fnv::u64(m.rows(), fnv::u64(m.cols(), fnv::kOffset));
  for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
    h = fnv::f64(m.data()[i], h);
  return h;
}

struct Series {
  std::uint64_t digest = 0;
  double test_nmse = 0.0;
  double seconds = 0.0;        ///< the whole series, fit included
  /// Per input: step() + features(), rescaled to the reference speed.
  std::vector<double> step_s;
  double fit_s = 0.0;  ///< rescaled likewise
  double timed_s = 0.0;  ///< the same steps and fit as timed, not rescaled
};

/// The series as a user calls it: OscillatorReservoir::run, then the
/// readout fit, timed as a whole.
Series plain_series(OscillatorReservoir& reservoir, const SeriesTask& task,
                    const Sizes& sizes) {
  Series out;
  const Clock::time_point start = Clock::now();
  const RMatrix features = reservoir.run(task.input);
  const EvalResult eval = evaluate_readout(features, task.target,
                                           sizes.washout, sizes.train,
                                           kRidge);
  out.seconds = seconds_since(start);
  out.digest = matrix_digest(features);
  out.test_nmse = eval.test_nmse;
  return out;
}

/// The loop run() runs -- reset, then step() and features() per input --
/// with each input timed on its own and followed by the reference kernel
/// that rescales it, then the readout fit. Its feature matrix must equal
/// run()'s bit for bit.
Series stepped_series(OscillatorReservoir& reservoir, const SeriesTask& task,
                      const Sizes& sizes) {
  Series out;
  RMatrix features(task.input.size(), reservoir.num_features());
  const Clock::time_point start = Clock::now();
  reservoir.reset();
  for (std::size_t t = 0; t < task.input.size(); ++t) {
    const Clock::time_point c = Clock::now();
    reservoir.step(task.input[t]);
    const std::vector<double> f = reservoir.features();
    const double step_s = seconds_since(c);
    out.timed_s += step_s;
    out.step_s.push_back(at_reference_speed(step_s, reference_seconds()));
    for (std::size_t j = 0; j < f.size(); ++j) features(t, j) = f[j];
  }
  const Clock::time_point fit = Clock::now();
  const EvalResult eval = evaluate_readout(features, task.target,
                                           sizes.washout, sizes.train,
                                           kRidge);
  const double fit_s = seconds_since(fit);
  out.timed_s += fit_s;
  out.fit_s = at_reference_speed(fit_s, reference_seconds());
  out.seconds = seconds_since(start);
  out.digest = matrix_digest(features);
  out.test_nmse = eval.test_nmse;
  return out;
}

/// Cold start to the first result: construction plus one step. The
/// step's cost depends on how many Fock levels the input populates, so it
/// takes a fixed mid-range input rather than the series' first.
double cold_start(const ReservoirConfig& cfg, Report& report) {
  const Clock::time_point start = Clock::now();
  OscillatorReservoir fresh(cfg);
  fresh.step(kSetupInput);
  report.check(fresh.features().size() == 16,
               "reservoir exposes the wrong neuron count");
  return seconds_since(start);
}

void check_series(const Series& s, std::uint64_t reference, Report& report) {
  report.check(s.digest == reference,
               "feature-matrix digest differs from the warm-up series");
  report.check(std::isfinite(s.test_nmse) && s.test_nmse < kNmseCeiling,
               "test NMSE " + std::to_string(s.test_nmse) +
                   " is not below the ceiling");
}

/// One per-layer pass: the series stepped by hand, each layer's public
/// call timed on its own (the input displacement is timed as a separate
/// call of the gate builder that step() uses), then the readout fit.
Report::Layers decompose(const ReservoirConfig& cfg, const SeriesTask& task,
                         const Sizes& sizes, std::uint64_t reference,
                         Report& report) {
  OscillatorReservoir reservoir(cfg);
  RMatrix features(task.input.size(), reservoir.num_features());
  std::vector<double> step_s, displacement_s, features_s;
  const Clock::time_point start = Clock::now();
  for (std::size_t t = 0; t < task.input.size(); ++t) {
    Clock::time_point c = Clock::now();
    const Matrix gate =
        displacement(cfg.levels, cplx{cfg.input_gain * task.input[t], 0.0});
    displacement_s.push_back(seconds_since(c));
    report.check(gate.rows() == static_cast<std::size_t>(cfg.levels),
                 "displacement has the wrong size");
    c = Clock::now();
    reservoir.step(task.input[t]);
    step_s.push_back(seconds_since(c));
    c = Clock::now();
    const std::vector<double> f = reservoir.features();
    features_s.push_back(seconds_since(c));
    for (std::size_t j = 0; j < f.size(); ++j) features(t, j) = f[j];
  }
  const Clock::time_point fit = Clock::now();
  const EvalResult eval = evaluate_readout(features, task.target,
                                           sizes.washout, sizes.train,
                                           kRidge);
  const double fit_s = seconds_since(fit);
  const double pass_s = seconds_since(start);
  report.count(task.input.size(), 0);
  Series checked;
  checked.digest = matrix_digest(features);
  checked.test_nmse = eval.test_nmse;
  check_series(checked, reference, report);
  return {
      {"qrc.step_ms", 1e3 * median(step_s)},
      {"gates.displacement_us", 1e6 * median(displacement_s)},
      {"qrc.features_us", 1e6 * median(features_s)},
      {"qrc.readout_fit_ms", 1e3 * fit_s},
      {"bench.traced_tp_per_s",
       static_cast<double>(task.input.size()) / pass_s},
  };
}

}  // namespace

void qrc_series(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options);
  const ReservoirConfig cfg = reservoir_config();
  Rng rng(options.seed);
  const SeriesTask task = make_narma(2, sizes.steps, rng);

  OscillatorReservoir reservoir(cfg);
  const Series warm = plain_series(reservoir, task, sizes);
  check_series(warm, warm.digest, report);
  const double rss_mb = peak_rss_mb();

  if (options.trace) {
    // Untraced series alternate with traced passes, so a change of host
    // speed during the run hits both sides of the overhead figure alike.
    std::vector<double> untraced, traced;
    std::vector<Report::Layers> passes;
    for (int pass = 0; pass < sizes.trace_passes; ++pass) {
      const auto plain = [&] {
        untraced.push_back(rate_at_reference_speed([&] {
          const Series s = plain_series(reservoir, task, sizes);
          check_series(s, warm.digest, report);
          report.count(task.input.size(), 0);
          return static_cast<double>(task.input.size()) / s.seconds;
        }));
      };
      const auto timed_calls = [&] {
        traced.push_back(rate_at_reference_speed([&] {
          passes.push_back(decompose(cfg, task, sizes, warm.digest, report));
          return passes.back().at("bench.traced_tp_per_s");
        }));
      };
      alternate(pass, plain, timed_calls);
    }
    report.set_medians(passes);
    report.set_overhead(untraced, traced);
    return;
  }

  std::vector<double> tps, timed_tps, step_s, setups;
  double timed = 0.0;
  const auto setup = [&] { return cold_start(cfg, report); };
  for (int round = 0; round < sizes.min_rounds || timed < options.seconds;
       ++round) {
    Series s = stepped_series(reservoir, task, sizes);
    if (round == 0 && options.corrupt == "digest") s.digest ^= 1;
    check_series(s, warm.digest, report);
    report.count(task.input.size(), 0);
    timed += s.seconds;
    double series_s = s.fit_s;
    for (double t : s.step_s) series_s += t;
    tps.push_back(static_cast<double>(task.input.size()) / series_s);
    timed_tps.push_back(static_cast<double>(task.input.size()) / s.timed_s);
    step_s.insert(step_s.end(), s.step_s.begin(), s.step_s.end());
    spread_setups(setups, sizes.setups, timed / options.seconds, setup);
  }
  spread_setups(setups, sizes.setups, 1.0, setup);
  std::cout << "# qrc_series: " << tps.size() << " series of "
            << task.input.size() << " steps, test NMSE " << warm.test_nmse
            << ", " << timed << " s timed\n";
  print_samples("throughput per series as timed (1/s)", timed_tps);
  print_samples("throughput per series rescaled (1/s)", tps);
  report.set("throughput_per_s", median(tps));
  report.set("latency_p50_ms", 1e3 * median(step_s));
  report.set("setup_s", median(setups));
  report.set("peak_rss_mb", rss_mb);
}

}  // namespace perfbench
