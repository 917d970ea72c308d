// scenario_mix: the standard four-tenant scenario replayed through
// sim::run_scenario on the state-vector backend, 2 workers, journal on.
//
// Circuits are small (dimension <= 27), so per-job overhead in sim,
// serve, obs and common dominates. Bursty arrivals fill batches, and the
// jobs are logical circuits whose plan keys ignore the calibration
// epoch, so the caches are only read.
//
// Untraced: repeated full replays (run_scenario + Journal::str), each
// journal byte-compared against the warm-up replay's. Traced: the same
// tenant stream pushed through each layer's public call in turn, timed
// call by call, with and without the tracer attached.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "exec/state_vector_backend.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "sim/invariants.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qs;

constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kVariantStream = 0x7a1a47ull;

struct Sizes {
  std::uint64_t jobs;   ///< submissions per replay (scale_to_jobs)
  std::uint64_t ticks;  ///< virtual ticks per replay
  int setups;           ///< cold starts behind the setup_s median
  int min_rounds;       ///< timed replays at least
  int trace_passes;     ///< traced passes (each after an untraced replay)
};

Sizes sizes_for(const Options& options) {
  if (options.smoke) return {300, 20, 2, 2, 1};
  return {10000, 200, 41, 5, 20};
}

sim::WorkloadSpec make_spec(const Options& options, const Sizes& sizes) {
  sim::WorkloadSpec spec = sim::WorkloadSpec::standard(options.seed,
                                                       sizes.ticks);
  spec.scale_to_jobs(sizes.jobs);
  return spec;
}

struct Replay {
  sim::ScenarioReport report;
  std::string journal;
  double seconds = 0.0;
};

Replay replay(const Backend& backend, const sim::WorkloadSpec& spec) {
  sim::ScenarioOptions scenario_options;
  scenario_options.workers = kWorkers;
  Replay out;
  const Clock::time_point start = Clock::now();
  {
    obs::Journal journal;
    out.report = sim::run_scenario(backend, spec, journal, scenario_options);
    out.journal = journal.str();
  }
  out.seconds = seconds_since(start);
  return out;
}

/// Invariant violations of an exported journal; one that does not even
/// parse is a violation too.
std::vector<std::string> journal_violations(const std::string& text) {
  std::istringstream is(text);
  try {
    return sim::check_journal(obs::Journal::read(is));
  } catch (const std::exception& e) {
    return {e.what()};
  }
}

/// Self-test fault: drops the first completion event line, so the job
/// loses its terminal edge and the journal its footer count.
void drop_first_completion(std::string& journal) {
  const std::size_t at = journal.find(" type=completed ");
  if (at == std::string::npos) return;
  const std::size_t begin = journal.rfind('\n', at) + 1;
  const std::size_t end = journal.find('\n', at);
  journal.erase(begin, end == std::string::npos ? end : end - begin + 1);
}

/// Cold start to the first results: a fresh backend and run_scenario on
/// the scenario's first tick alone -- service, calibration and journal
/// brought up, the tick's arrivals made, admitted and run through cold
/// caches -- then the journal export.
double cold_start(const sim::WorkloadSpec& spec, Report& report) {
  sim::WorkloadSpec first_tick = spec;
  first_tick.ticks = 1;
  const Clock::time_point start = Clock::now();
  const StateVectorBackend backend;
  const Replay r = replay(backend, first_tick);
  const double seconds = seconds_since(start);
  report.check(r.report.submitted > 0 && r.report.accounted() &&
                   !r.journal.empty(),
               "first-tick replay lost a job");
  return seconds;
}

/// One per-layer pass: the warm-up journal's submissions (tick and
/// tenant, in canonical order) replayed tick by tick through make_job,
/// structural_fingerprint, submit on a paused service, resume + drain,
/// and finally Journal::str -- each call timed on its own, with or
/// without the tracer attached. Cancels, deadlines and storms are left
/// out: every job runs.
Report::Layers decompose(const Backend& backend, const sim::WorkloadSpec& spec,
                         const obs::Journal::Parsed& warm, bool traced,
                         const Options& options, Report& report) {
  std::map<std::string, const sim::TenantSpec*> tenants;
  for (const sim::TenantSpec& t : spec.tenants) tenants[t.name] = &t;

  obs::ManualClock clock(0);
  obs::Journal journal;
  obs::TracerOptions tracer_options;
  tracer_options.shards = kWorkers + 1;
  tracer_options.capacity_per_shard = 1u << 16;
  obs::Tracer tracer(tracer_options);
  ServiceOptions service_options;
  service_options.workers = kWorkers;
  service_options.plan_cache_capacity =
      sim::ScenarioOptions().plan_cache_capacity;
  service_options.start_paused = true;
  service_options.clock = &clock;
  service_options.journal = &journal;
  service_options.tracer = traced ? &tracer : nullptr;
  service_options.result_store_capacity = 1u << 20;
  JobService service(backend, service_options);

  Rng variants(split_seed(options.seed, kVariantStream));
  double make_s = 0.0, fingerprint_s = 0.0, submit_s = 0.0, drain_s = 0.0;
  std::uint64_t jobs = 0, failed = 0, digest = fnv::kOffset;
  std::vector<JobHandle> open;
  const Clock::time_point pass_start = Clock::now();
  auto drain = [&] {
    const Clock::time_point t = Clock::now();
    service.resume();
    for (const JobHandle& h : open)
      if (h.wait().status != JobStatus::kDone) ++failed;
    service.pause();
    drain_s += seconds_since(t);
    open.clear();
  };
  std::uint64_t tick_ns = 0;
  for (const obs::JournalEvent& event : warm.events) {
    if (event.type != obs::JournalEventType::kSubmitted) continue;
    if (event.time_ns != tick_ns) {
      drain();
      clock.advance(obs::Duration(event.time_ns - tick_ns));
      tick_ns = event.time_ns;
    }
    const sim::TenantSpec& tenant = *tenants.at(event.tenant);
    Clock::time_point t = Clock::now();
    JobSpec job = sim::make_job(
        tenant, variants.index(std::max<std::size_t>(1, tenant.variants)));
    make_s += seconds_since(t);
    t = Clock::now();
    digest = fnv::combine(digest, structural_fingerprint(job.circuit));
    fingerprint_s += seconds_since(t);
    t = Clock::now();
    open.push_back(service.submit(std::move(job)));
    submit_s += seconds_since(t);
    ++jobs;
  }
  drain();
  Clock::time_point t = Clock::now();
  const std::string text = journal.str();
  const double export_s = seconds_since(t);
  const double pass_s = seconds_since(pass_start);
  service.shutdown(ShutdownMode::kDrain);

  report.count(jobs, failed);
  report.check(jobs > 0 && digest != fnv::kOffset, "empty tenant stream");
  const ServiceTelemetry tel = service.telemetry();
  const double n = static_cast<double>(std::max<std::uint64_t>(1, jobs));
  return {
      {"sim.make_job_us", 1e6 * make_s / n},
      {"common.fingerprint_us", 1e6 * fingerprint_s / n},
      {"serve.submit_us", 1e6 * submit_s / n},
      {"serve.drain_us_per_job", 1e6 * drain_s / n},
      {"serve.batches", static_cast<double>(tel.batches)},
      {"serve.mean_batch", tel.mean_batch_size()},
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
      {"obs.journal_events", static_cast<double>(journal.size())},
      {"obs.journal_bytes", static_cast<double>(text.size())},
      {"obs.journal_export_s", export_s},
      {"obs.trace.spans", static_cast<double>(tracer.recorded())},
      {"obs.trace.dropped_spans", static_cast<double>(tracer.dropped())},
      {"bench.tp_per_s", static_cast<double>(jobs) / pass_s},
  };
}

/// The warm-up replay: the reference journal every later replay must
/// reproduce byte for byte, checked against the invariants once.
Replay warm_up(const Backend& backend, const sim::WorkloadSpec& spec,
               Report& report) {
  Replay warm = replay(backend, spec);
  report.check(warm.report.accounted(), "warm-up replay lost a job");
  report.check(journal_violations(warm.journal).empty(),
               "warm-up journal violates the invariants");
  return warm;
}

/// Timed replay `round`, checked against the warm-up journal.
Replay timed_replay(const Backend& backend, const sim::WorkloadSpec& spec,
                    const Replay& warm, int round, const Options& options,
                    Report& report) {
  Replay r = replay(backend, spec);
  if (round == 0 && options.corrupt == "journal")
    drop_first_completion(r.journal);
  if (round == 0)
    report.check(journal_violations(r.journal).empty(),
                 "replayed journal violates the invariants");
  report.check(r.report.accounted(), "scenario replay lost a job");
  report.check(r.journal == warm.journal,
               "journal bytes differ from the warm-up replay");
  report.count(r.report.submitted, r.report.failed);
  return r;
}

}  // namespace

void scenario_mix(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options);
  const sim::WorkloadSpec spec = make_spec(options, sizes);
  const StateVectorBackend backend;

  if (options.trace) {
    // Plain passes alternate with traced ones, so a change of host speed
    // during the run hits both sides of the overhead figure alike. The
    // per-layer figures are the traced passes' medians.
    const Replay warm = warm_up(backend, spec, report);
    std::istringstream is(warm.journal);
    const obs::Journal::Parsed parsed = obs::Journal::read(is);
    std::vector<double> untraced, traced;
    std::vector<Report::Layers> passes;
    for (int pass = 0; pass < sizes.trace_passes; ++pass) {
      const auto plain = [&] {
        untraced.push_back(rate_at_reference_speed([&] {
          return decompose(backend, spec, parsed, false, options, report)
              .at("bench.tp_per_s");
        }));
      };
      const auto with_tracer = [&] {
        traced.push_back(rate_at_reference_speed([&] {
          passes.push_back(
              decompose(backend, spec, parsed, true, options, report));
          return passes.back().at("bench.tp_per_s");
        }));
        passes.back().erase("bench.tp_per_s");
      };
      alternate(pass, plain, with_tracer);
    }
    report.set_medians(passes);
    report.set_overhead(untraced, traced);
    return;
  }

  const Replay warm = warm_up(backend, spec, report);
  const double rss_mb = peak_rss_mb();
  std::vector<double> tps, timed_tps, replay_s, setups;
  double timed = 0.0;
  const auto setup = [&] { return cold_start(spec, report); };
  for (int round = 0; round < sizes.min_rounds || timed < options.seconds;
       ++round) {
    // The reference kernel on either side of the replay rescales it.
    const double before_s = reference_seconds();
    const Replay r = timed_replay(backend, spec, warm, round, options, report);
    const double reference_s = 0.5 * (before_s + reference_seconds());
    timed += r.seconds;
    replay_s.push_back(at_reference_speed(r.seconds, reference_s));
    tps.push_back(static_cast<double>(r.report.submitted) / replay_s.back());
    timed_tps.push_back(static_cast<double>(r.report.submitted) / r.seconds);
    spread_setups(setups, sizes.setups, timed / options.seconds, setup);
  }
  spread_setups(setups, sizes.setups, 1.0, setup);
  std::cout << "# scenario_mix: " << tps.size() << " replays of "
            << warm.report.submitted << " jobs, " << timed << " s timed\n";
  print_samples("throughput per replay as timed (1/s)", timed_tps);
  print_samples("throughput per replay rescaled (1/s)", tps);
  report.set("throughput_per_s", median(tps));
  report.set("latency_p50_ms", 1e3 * median(replay_s));
  report.set("setup_s", median(setups));
  report.set("peak_rss_mb", rss_mb);
}

}  // namespace perfbench
