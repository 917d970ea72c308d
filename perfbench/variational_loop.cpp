// variational_loop: two closed-loop QAOA clients (one tenant each) on a
// 2-worker JobService over the noisy trajectory backend.
//
// Each client submits one job, waits for its result, then submits the
// next -- a variational optimiser waits for every result, so round-trip
// latency is its figure, and with at most two jobs in flight batching is
// bypassed. Every job is the parametric 4-node ring colouring ansatz (3
// colours, p = 1) bound to the client's next (gamma, beta), compiled for
// a 2x2-mode qutrit device, 64 shots, readout-mitigated. A round runs
// fixed-length phases; between phases the main thread publishes the next
// DriftModel::advance snapshot, so every job's calibration epoch and
// seed are fixed by (seed, client, iteration) and each recalibration
// invalidates the transpile and plan caches -- the write side of those
// caches, which scenario_mix never touches.
#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/drift.h"
#include "calib/snapshot.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "exec/plan.h"
#include "exec/session.h"
#include "exec/trajectory_backend.h"
#include "hardware/processor.h"
#include "obs/trace.h"
#include "qaoa/coloring_qaoa.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qs;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShots = 64;
constexpr double kReadoutError = 0.02;
/// Simulated device time between recalibrations (drift step).
constexpr double kPhaseSeconds = 600.0;
constexpr std::uint64_t kAngleStream = 0xa9a1e5ull;
constexpr std::uint64_t kJobStream = 0x10b5ull;
constexpr std::uint64_t kDriftStream = 0xd21f7ull;

struct Sizes {
  std::size_t phases;      ///< recalibration epochs per round
  std::size_t iterations;  ///< loop iterations per client per phase
  int setups;              ///< cold starts behind the setup_s median
  int min_rounds;          ///< timed rounds at least
  int trace_passes;        ///< per-layer passes of a traced run
};

Sizes sizes_for(const Options& options) {
  if (options.smoke) return {2, 3, 1, 2, 1};
  return {4, 40, 31, 5, 15};
}

/// Everything a round reads; built once from the seed.
struct Fixture {
  Fixture(const Options& options, const Sizes& s)
      : sizes(s),
        device(make_device()),
        backend(make_noise()),
        circuit(make_ansatz()),
        initial(CalibrationSnapshot::nominal(device, kReadoutError)),
        drift(split_seed(options.seed, kDriftStream)) {
    // Each client walks its own seeded path through the p = 1 landscape,
    // as a line-searching optimiser would; angles and job seeds depend
    // only on (seed, client, iteration).
    const std::size_t n = sizes.phases * sizes.iterations;
    for (std::size_t c = 0; c < kClients; ++c) {
      Rng rng(split_seed(options.seed, kAngleStream + c));
      double gamma = rng.uniform(0.2, 1.2), beta = rng.uniform(0.1, 0.8);
      for (std::size_t i = 0; i < n; ++i) {
        gamma += rng.uniform(-0.05, 0.05);
        beta += rng.uniform(-0.05, 0.05);
        angles[c].push_back({gamma, beta});
        seeds[c].push_back(split_seed(options.seed,
                                      kJobStream + c * n + i));
      }
    }
  }

  static Processor make_device() {
    ProcessorConfig cfg;
    cfg.num_cavities = 2;
    cfg.modes_per_cavity = 2;
    cfg.levels_per_mode = 3;
    return Processor(cfg);
  }
  static NoiseModel make_noise() {
    NoiseParams p;
    p.depol_1q = 1e-3;
    p.depol_2q = 5e-3;
    p.loss_per_gate = 1e-3;
    return NoiseModel(p);
  }
  static Circuit make_ansatz() {
    Graph ring;
    ring.n = 4;
    ring.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    return ColoringQaoa(ring, 3).parametric_circuit(1, {0, 0, 0, 0});
  }

  JobSpec job(std::size_t client, std::size_t i) const {
    return JobSpec(circuit)
        .with_tenant(client == 0 ? "opt-a" : "opt-b")
        .with_parameters(angles[client][i])
        .with_compilation(device)
        .with_shots(kShots)
        .with_seed(seeds[client][i])
        .with_readout_mitigation();
  }

  Sizes sizes;
  Processor device;
  TrajectoryBackend backend;
  Circuit circuit;
  CalibrationSnapshot initial;
  DriftModel drift;
  std::vector<std::vector<double>> angles[kClients];
  std::vector<std::uint64_t> seeds[kClients];
};

std::uint64_t result_digest(const ExecutionResult& r) {
  std::uint64_t h = fnv::u64(r.calib_epoch, fnv::kOffset);
  for (std::size_t c : r.counts) h = fnv::u64(c, h);
  for (double m : r.mitigated) h = fnv::f64(m, h);
  return h;
}

/// Phase barrier between the main thread (which recalibrates) and the
/// clients (which run one phase of iterations each). abort() releases
/// every waiter so the main thread can join its clients on an error path.
class PhaseGate {
 public:
  void open(std::size_t phase) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    done_ = 0;
    cv_.notify_all();
  }
  /// False when the round was aborted instead.
  bool wait_open(std::size_t phase) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return phase_ == phase || aborted_; });
    return !aborted_;
  }
  void finish() {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    cv_.notify_all();
  }
  void wait_done() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == kClients; });
  }
  void abort() {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t phase_ = ~std::size_t{0};
  std::size_t done_ = 0;
  bool aborted_ = false;
};

struct Round {
  double seconds = 0.0;  ///< first submit to last result
  std::vector<double> latencies_ms;
  /// Per job: round trip minus the job's own backend time.
  std::vector<double> beyond_backend_ms;
  std::vector<std::uint64_t> digests;  ///< [client][iteration], flattened
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  ServiceTelemetry telemetry;
  std::vector<double> recalibrate_s, drift_s;
};

Round run_round(const Fixture& f, obs::Tracer* tracer) {
  const std::size_t n = f.sizes.phases * f.sizes.iterations;
  ServiceOptions service_options;
  service_options.workers = kWorkers;
  service_options.tracer = tracer;
  JobService service(f.backend, service_options);
  std::vector<std::uint64_t> epochs{service.recalibrate(f.initial)};

  Round round;
  round.digests.assign(kClients * n, 0);
  std::vector<double> latencies[kClients], beyond[kClients];
  std::vector<std::string> problems[kClients];
  std::uint64_t failed[kClients] = {};
  PhaseGate gate;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t p = 0; p < f.sizes.phases; ++p) {
        if (!gate.wait_open(p)) return;
        for (std::size_t k = 0; k < f.sizes.iterations; ++k) {
          const std::size_t i = p * f.sizes.iterations + k;
          std::string problem;
          try {
            JobSpec spec = f.job(c, i);
            const Clock::time_point t = Clock::now();
            const JobOutcome out = service.submit(std::move(spec)).wait();
            const double round_trip_s = seconds_since(t);
            const ExecutionResult& r = out.result;
            latencies[c].push_back(1e3 * round_trip_s);
            beyond[c].push_back(1e3 * (round_trip_s - r.wall_seconds));
            if (out.status != JobStatus::kDone || r.total_counts() != kShots ||
                r.mitigated.empty() || r.calib_epoch != epochs[p])
              problem = std::string("status ") + to_string(out.status) +
                        ", epoch " + std::to_string(r.calib_epoch);
            round.digests[c * n + i] = result_digest(r);
          } catch (const std::exception& e) {
            problem = e.what();
          }
          if (!problem.empty()) {
            ++failed[c];
            problems[c].push_back("client " + std::to_string(c) +
                                  " iteration " + std::to_string(i) + ": " +
                                  problem);
          }
        }
        gate.finish();
      }
    });

  CalibrationSnapshot snapshot = f.initial;
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t p = 0; p < f.sizes.phases; ++p) {
      if (p > 0) {
        Clock::time_point t = Clock::now();
        snapshot = f.drift.advance(snapshot, kPhaseSeconds);
        round.drift_s.push_back(seconds_since(t));
        t = Clock::now();
        epochs.push_back(service.recalibrate(snapshot));
        round.recalibrate_s.push_back(seconds_since(t));
      }
      gate.open(p);
      gate.wait_done();
    }
  } catch (...) {
    gate.abort();
    for (std::thread& t : clients) t.join();
    throw;
  }
  round.seconds = seconds_since(start);
  for (std::thread& t : clients) t.join();
  service.shutdown(ShutdownMode::kDrain);
  round.telemetry = service.telemetry();
  for (std::size_t c = 0; c < kClients; ++c) {
    round.latencies_ms.insert(round.latencies_ms.end(),
                              latencies[c].begin(), latencies[c].end());
    round.beyond_backend_ms.insert(round.beyond_backend_ms.end(),
                                   beyond[c].begin(), beyond[c].end());
    round.failed += failed[c];
    round.problems.insert(round.problems.end(), problems[c].begin(),
                          problems[c].end());
  }
  return round;
}

double iterations_per_s(const Fixture& f, const Round& r) {
  return static_cast<double>(kClients * f.sizes.phases *
                             f.sizes.iterations) /
         r.seconds;
}

/// Checks a round's jobs and its digests against the warm-up round's.
void check_round(const Round& r, const std::vector<std::uint64_t>& reference,
                 Report& report) {
  for (const std::string& problem : r.problems) report.fail(problem);
  report.check(r.digests == reference,
               "result digests differ from the warm-up round");
}

/// Cold start to the first result: backend, device, calibration, drift
/// model, service, and one job through cold transpile and plan caches.
double cold_start(const Options& options, const Sizes& sizes,
                  Report& report) {
  const Clock::time_point start = Clock::now();
  const Fixture f(options, sizes);
  JobService service(f.backend, ServiceOptions{});
  service.recalibrate(f.initial);
  const JobOutcome out = service.submit(f.job(0, 0)).wait();
  report.check(out.status == JobStatus::kDone &&
                   out.result.total_counts() == kShots,
               "setup job did not complete");
  service.shutdown(ShutdownMode::kDrain);
  return seconds_since(start);
}

struct Floor {
  double execute_us;         ///< median warm ExecutionSession::submit
  double beyond_backend_us;  ///< median of submit minus backend time
};

/// The warm execution floor: one client's requests straight through an
/// ExecutionSession whose caches are warm, no service in between.
Floor execute_floor(const Fixture& f, const Processor& view,
                    std::shared_ptr<const CalibrationSnapshot> snapshot,
                    Report& report) {
  const std::size_t n = f.sizes.phases * f.sizes.iterations;
  SessionOptions session_options;
  session_options.threads = 1;
  ExecutionSession session(f.backend, session_options);
  std::vector<double> execute_s, beyond_s;
  for (std::size_t i = 0; i <= std::min<std::size_t>(n, 32); ++i) {
    ExecutionRequest request = ExecutionRequest(f.circuit)
                                   .with_parameters(f.angles[0][i % n])
                                   .with_compilation(view)
                                   .with_shots(kShots)
                                   .with_seed(f.seeds[0][i % n])
                                   .with_readout_mitigation(snapshot);
    const Clock::time_point t = Clock::now();
    const ExecutionResult r = session.submit(std::move(request));
    const double submit_s = seconds_since(t);
    if (i > 0) {  // the first is cold
      execute_s.push_back(submit_s);
      beyond_s.push_back(submit_s - r.wall_seconds);
    }
    report.check(r.total_counts() == kShots, "session result lost shots");
  }
  return {1e6 * median(execute_s), 1e6 * median(beyond_s)};
}

/// One per-layer pass: an untraced round (latencies, throughput), a
/// traced round (telemetry counts, recalibration and drift times), and
/// the execution floor, back to back so host-speed changes during the
/// run hit all three alike; the two rounds swap order from pass to pass.
/// Their throughputs are rescaled to the reference host speed
/// (host_speed.h).
Report::Layers trace_pass(const Fixture& f, int pass, obs::Tracer& tracer,
                          const std::vector<std::uint64_t>& reference,
                          const Processor& view,
                          std::shared_ptr<const CalibrationSnapshot> snapshot,
                          Report& report,
                          std::vector<double>& untraced_latencies_ms) {
  Round plain, traced;
  double untraced_tp = 0.0, traced_tp = 0.0;
  alternate(
      pass,
      [&] {
        untraced_tp = rate_at_reference_speed([&] {
          plain = run_round(f, nullptr);
          return iterations_per_s(f, plain);
        });
      },
      [&] {
        traced_tp = rate_at_reference_speed([&] {
          traced = run_round(f, &tracer);
          return iterations_per_s(f, traced);
        });
      });
  check_round(plain, reference, report);
  report.count(plain.latencies_ms.size(), plain.failed);
  untraced_latencies_ms.insert(untraced_latencies_ms.end(),
                               plain.latencies_ms.begin(),
                               plain.latencies_ms.end());
  check_round(traced, reference, report);
  report.count(traced.latencies_ms.size(), traced.failed);
  const Floor floor = execute_floor(f, view, std::move(snapshot), report);

  const ServiceTelemetry& tel = traced.telemetry;
  return {
      {"serve.batches", static_cast<double>(tel.batches)},
      {"serve.mean_batch", tel.mean_batch_size()},
      {"serve.queue_wait_us",
       1e6 * tel.queue_seconds_total /
           static_cast<double>(std::max<std::size_t>(1, tel.batched_jobs))},
      {"exec.plan_hits", static_cast<double>(tel.plan_cache_hits)},
      {"exec.plan_misses", static_cast<double>(tel.plan_cache_misses)},
      {"compiler.transpile_hits",
       static_cast<double>(tel.transpile_cache_hits)},
      {"compiler.transpile_misses",
       static_cast<double>(tel.transpile_cache_misses)},
      {"qudit.kernel_specialized", static_cast<double>(tel.kernel_specialized)},
      {"qudit.kernel_generic", static_cast<double>(tel.kernel_generic)},
      {"qudit.kernel_scalar", static_cast<double>(tel.kernel_scalar)},
      {"qudit.kernel_batched", static_cast<double>(tel.kernel_batched)},
      {"calib.stale_hits", static_cast<double>(tel.stale_hits)},
      {"calib.recalibrate_us", 1e6 * median(traced.recalibrate_s)},
      {"calib.drift_advance_us", 1e6 * median(traced.drift_s)},
      {"exec.execute_us", floor.execute_us},
      // L50 - floor, with each side's own backend time taken out job by
      // job: the difference of two medians taken moments apart would
      // drown these tens of microseconds in host-speed noise.
      {"serve.overhead_us",
       1e3 * median(plain.beyond_backend_ms) - floor.beyond_backend_us},
      {"bench.untraced_tp_per_s", untraced_tp},
      {"bench.traced_tp_per_s", traced_tp},
  };
}

void traced_run(const Fixture& f, Report& report) {
  const Round warm = run_round(f, nullptr);
  check_round(warm, warm.digests, report);

  // The calibrated device of each phase, as the service pins it.
  std::vector<std::shared_ptr<const CalibrationSnapshot>> snapshots{
      std::make_shared<const CalibrationSnapshot>(f.initial)};
  for (std::size_t p = 1; p < f.sizes.phases; ++p)
    snapshots.push_back(std::make_shared<const CalibrationSnapshot>(
        f.drift.advance(*snapshots.back(), kPhaseSeconds)));
  const Processor view = f.device.with_calibration(snapshots.front());

  obs::TracerOptions tracer_options;
  tracer_options.shards = kWorkers + kClients;
  tracer_options.capacity_per_shard = 1u << 16;
  obs::Tracer tracer(tracer_options);
  std::vector<Report::Layers> passes;
  std::vector<double> latencies_ms;
  for (int pass = 0; pass < f.sizes.trace_passes; ++pass)
    passes.push_back(trace_pass(f, pass, tracer, warm.digests, view,
                                snapshots.front(), report, latencies_ms));
  report.set_medians(passes);
  std::vector<double> untraced, traced;
  for (const Report::Layers& pass : passes) {
    untraced.push_back(pass.at("bench.untraced_tp_per_s"));
    traced.push_back(pass.at("bench.traced_tp_per_s"));
  }
  report.set_overhead(untraced, traced);
  report.set("serve.latency_p99_ms", quantile(latencies_ms, 0.99));
  report.set("obs.trace.spans", static_cast<double>(tracer.recorded()));
  report.set("obs.trace.dropped_spans", static_cast<double>(tracer.dropped()));

  // Cold compile, once per epoch: transpile (the free function does not
  // cache) and the lowering of its physical circuit.
  std::vector<double> transpile_s, lower_s;
  for (const auto& snapshot : snapshots) {
    const Processor device = f.device.with_calibration(snapshot);
    Clock::time_point t = Clock::now();
    const auto artifact = transpile(f.circuit, device);
    transpile_s.push_back(seconds_since(t));
    t = Clock::now();
    const CompiledCircuit plan(artifact->physical, f.backend.noise());
    lower_s.push_back(seconds_since(t));
    report.check(plan.parametric(), "lowered plan lost its parameters");
  }
  report.set("compiler.transpile_ms", 1e3 * median(transpile_s));
  report.set("exec.lower_ms", 1e3 * median(lower_s));

  // Admission: submits onto a paused service (journal off, as in the
  // loop), then one drain.
  const std::size_t n = f.sizes.phases * f.sizes.iterations;
  ServiceOptions paused;
  paused.workers = kWorkers;
  paused.start_paused = true;
  JobService service(f.backend, paused);
  service.recalibrate(f.initial);
  std::vector<JobHandle> handles;
  double submit_s = 0.0, fingerprint_s = 0.0;
  std::uint64_t digest = fnv::kOffset;
  for (std::size_t i = 0; i < n; ++i) {
    JobSpec spec = f.job(i % kClients, i);
    Clock::time_point t = Clock::now();
    digest = fnv::combine(digest, structural_fingerprint(spec.circuit));
    fingerprint_s += seconds_since(t);
    t = Clock::now();
    handles.push_back(service.submit(std::move(spec)));
    submit_s += seconds_since(t);
  }
  service.resume();
  for (const JobHandle& h : handles)
    report.check(h.wait().status == JobStatus::kDone,
                 "paused-service job did not complete");
  service.shutdown(ShutdownMode::kDrain);
  report.check(digest != fnv::kOffset, "no fingerprints taken");
  report.set("serve.submit_us", 1e6 * submit_s / static_cast<double>(n));
  report.set("common.fingerprint_us",
             1e6 * fingerprint_s / static_cast<double>(n));
}

}  // namespace

void variational_loop(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options);
  if (options.trace) {
    const Fixture f(options, sizes);
    traced_run(f, report);
    return;
  }

  const Fixture f(options, sizes);
  const Round warm = run_round(f, nullptr);
  check_round(warm, warm.digests, report);
  const double rss_mb = peak_rss_mb();

  std::vector<double> tps, timed_tps, latencies_ms, setups;
  const auto setup = [&] { return cold_start(options, sizes, report); };
  double timed = 0.0;
  for (int round = 0; round < sizes.min_rounds || timed < options.seconds;
       ++round) {
    // The reference kernel on either side of the round rescales it.
    const double before_s = reference_seconds();
    Round r = run_round(f, nullptr);
    const double reference_s = 0.5 * (before_s + reference_seconds());
    if (round == 0 && options.corrupt == "digest") r.digests[0] ^= 1;
    check_round(r, warm.digests, report);
    report.count(r.latencies_ms.size(), r.failed);
    timed += r.seconds;
    const double iterations =
        static_cast<double>(kClients * sizes.phases * sizes.iterations);
    tps.push_back(iterations / at_reference_speed(r.seconds, reference_s));
    timed_tps.push_back(iterations / r.seconds);
    for (double ms : r.latencies_ms)
      latencies_ms.push_back(at_reference_speed(ms, reference_s));
    spread_setups(setups, sizes.setups, timed / options.seconds, setup);
  }
  spread_setups(setups, sizes.setups, 1.0, setup);
  std::cout << "# variational_loop: " << tps.size() << " rounds, "
            << latencies_ms.size() << " round trips (latency samples), "
            << timed << " s timed\n";
  print_samples("throughput per round as timed (1/s)", timed_tps);
  print_samples("throughput per round rescaled (1/s)", tps);
  report.set("throughput_per_s", median(tps));
  report.set("latency_p50_ms", median(latencies_ms));
  report.set("setup_s", median(setups));
  report.set("peak_rss_mb", rss_mb);
}

}  // namespace perfbench
