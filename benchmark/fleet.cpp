// The fleet workload: closed-loop rounds of run_fleet over short 2D
// Taylor-Green jobs, until the time budget is spent.  Each round is a
// seeded sweep of 11 Reynolds numbers in [10, 50] x order {8, 10, 12} x
// mesh {4, 6, 8} (99 jobs, 6 steps each), run at the thread budget's
// concurrency with the setup cache on and SJF dispatch.  The cost is the
// fleet, setup-cache and io layers: fork, setup and result overhead per
// job.
//
// Nine shapes, not six: job cost clusters by shape, and with an even
// number of equal clusters the median job falls between two of them
// (it moved 5% from run to run; 1.7% with nine).  Checkpoints are off:
// on a disk mounted with online discard, freeing an fsync'ed file costs
// up to ~60 ms, and a checkpoint replacing the previous one would put
// that inside the job.  (run_fleet deletes the previous round's result
// files before its clock starts, so that cost stays out of the metrics.)
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>

#include <unistd.h>

#include "bench.hpp"
#include "common/timer.hpp"
#include "fleet/supervisor.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"
#include "tensor/mxm.hpp"

namespace tsem::bench {
namespace {

/// Kinetic energy of the unit Taylor-Green vortex on [0, 2pi]^2 at time t:
/// pi^2 exp(-4 nu t).
double taylor_green_energy(double nu, double t) {
  return M_PI * M_PI * std::exp(-4.0 * nu * t);
}

double json_number(const obs::Json& o, const char* key) {
  const obs::Json* v = o.find(key);
  return v && v->is_number() ? v->as_double() : 0.0;
}

fleet::SweepSpec round_spec(const RunConfig& cfg, std::mt19937_64& rng,
                            int concurrency) {
  fleet::SweepSpec spec;
  spec.name = "bench";
  spec.base.dt = 0.01;
  spec.base.steps = cfg.tiny ? 2 : 6;
  spec.base.checkpoint_every = cfg.tiny ? 1 : 0;
  std::uniform_real_distribution<double> re(10.0, 50.0);
  for (int i = 0; i < (cfg.tiny ? 2 : 11); ++i) spec.reynolds.push_back(re(rng));
  spec.order = cfg.tiny ? std::vector<int>{4} : std::vector<int>{8, 10, 12};
  spec.mesh_k = cfg.tiny ? std::vector<int>{2} : std::vector<int>{4, 6, 8};
  spec.fleet.concurrency = concurrency;
  spec.fleet.cache = true;
  spec.fleet.scheduler = fleet::FleetOptions::Scheduler::Sjf;
  spec.fleet.workdir = cfg.workdir + "/fleet";
  return spec;
}

/// Largest relative kinetic-energy error of the completed jobs against the
/// exact decay, with the viscosity scaled by nu_scale (1 for the check).
double energy_error(const fleet::FleetReport& rep, double nu_scale) {
  double worst = 0.0;
  for (const auto& j : rep.jobs) {
    if (!j.completed) continue;
    const double ex = taylor_green_energy(nu_scale / j.spec.reynolds,
                                          j.result.final_time);
    worst = std::max(worst, std::fabs(j.result.kinetic_energy - ex) / ex);
  }
  return worst;
}

}  // namespace

void run_fleet_sweep(const RunConfig& cfg, Result& r, Tracer& tr) {
  const int concurrency = thread_budget();
  // Workers are forked children: they inherit this ICV.  libgomp reads
  // OMP_NUM_THREADS once at load time, so setting the environment here
  // would not reach them, and without this every worker would run the
  // parent's default team (concurrency x nproc threads on nproc cores).
  set_threads(1);

  std::mt19937_64 rng(cfg.seed);
  constexpr double kEnergyTol = 5e-4;
  std::vector<double> job_wall, round_rate, round_setup;
  double round_wall = 0.0, job_wall_sum = 0.0, setup_sum = 0.0,
         step_sum = 0.0, launch_gap_sum = 0.0, energy_err = 0.0,
         trace_sec = 0.0;
  double gs_ops = 0.0, gs_words = 0.0, ns_steps = 0.0;
  std::int64_t jobs = 0, completed = 0, retries = 0, hang_kills = 0;
  long hits = 0, misses = 0;

  const double t_loop = now_s();
  int round = 0;
  while (round < 2 || now_s() - t_loop < cfg.seconds) {
    const fleet::SweepSpec spec = round_spec(cfg, rng, concurrency);
    fleet::FleetReport rep;
    std::string err;
    const double t0 = now_s();
    const int round_span = tr.begin("fleet.round");
    const bool ok = fleet::run_fleet(spec, &rep, &err);
    tr.end(round_span);
    if (!ok) {
      r.check(false, "run_fleet: " + err);
      break;
    }
    ++round;

    // Job spans from the supervisor's event log: a launch until the event
    // that ends that process (completion, crash, kill, preemption).  This
    // rebuild after the round is all the tracing the fleet does.  Each
    // freed slot is paired with the next launch for the dispatch gap.
    const Timer t_trace;
    static const std::set<std::string> kEnds = {
        "complete", "crash", "hang_kill", "preempt", "torn_result",
        "cache_cold_retry"};
    std::map<int, double> open;
    std::deque<double> freed;
    for (const auto& e : rep.events) {
      if (e.type == "launch") {
        if (!freed.empty()) {
          launch_gap_sum += e.t - freed.front();
          freed.pop_front();
        }
        open[e.job] = e.t;
      } else if (kEnds.count(e.type) != 0 && open.count(e.job) != 0) {
        tr.add("fleet.job", t0 + open[e.job], t0 + e.t, round_span,
               static_cast<int>(::getpid()), 1 + e.job % concurrency);
        open.erase(e.job);
        freed.push_back(e.t);
      }
    }
    if (tr.on()) trace_sec += t_trace.seconds();

    for (const auto& j : rep.jobs) {
      ++jobs;
      r.attempted += j.launches;
      r.failed += j.launches - (j.completed ? 1 : 0);
      job_wall.push_back(j.wall_seconds);
      job_wall_sum += j.wall_seconds;
      hang_kills += j.hang_kills;
      if (!j.completed) continue;
      ++completed;
      gs_ops += json_number(j.result.counters, "gs/ops");
      gs_words += json_number(j.result.counters, "gs/words");
      ns_steps += json_number(j.result.counters, "ns/steps");
    }
    retries += rep.retries;
    hits += rep.cache_hits;
    misses += rep.cache_misses;
    setup_sum += rep.setup_seconds_total;
    step_sum += rep.step_seconds_total;
    round_wall += rep.wall_seconds;
    round_rate.push_back(static_cast<double>(rep.completed) / rep.wall_seconds);
    round_setup.push_back(rep.setup_seconds_total /
                          std::max(1, rep.completed));
    energy_err = std::max(energy_err, energy_error(rep, 1.0));
    r.check(rep.completed == static_cast<int>(rep.jobs.size()),
            "round " + std::to_string(round) + ": " +
                std::to_string(rep.completed) + " of " +
                std::to_string(rep.jobs.size()) + " jobs completed");
    if (cfg.tiny && round == 1) {
      const double wrong = energy_error(rep, 2.0);
      r.check(wrong > kEnergyTol,
              "control: energy check accepts a doubled viscosity (" +
                  std::to_string(wrong) + ")");
    }
  }

  r.metrics["setup_s"] = median(round_setup);
  r.metrics["op_s_p50"] = median(job_wall);
  r.metrics["op_s_p90"] = quantile(job_wall, 0.9);
  r.metrics["ops_per_s"] = median(round_rate);
  r.metrics["rss_mb"] = peak_rss_mb();
  r.meta["rounds"] = round;
  r.meta["jobs"] = jobs;
  r.meta["concurrency"] = concurrency;
  r.meta["jobs_per_s_total"] = static_cast<double>(completed) / round_wall;
  r.meta["energy_rel_err_max"] = energy_err;
  r.check(energy_err <= kEnergyTol,
          "final kinetic energy off the exact decay by " +
              std::to_string(energy_err));

  if (cfg.tiny) {
    // A job whose worker dies on its only attempt must fail the
    // completion check.
    fleet::SweepSpec spec = round_spec(cfg, rng, concurrency);
    spec.reynolds.resize(1);
    spec.fleet.max_attempts = 1;
    ProcessFault kill;
    kill.kind = ProcessFault::Kind::KillWorker;
    kill.step = 1;
    spec.faults.emplace_back(0, kill);
    fleet::FleetReport rep;
    std::string err;
    const bool ok = fleet::run_fleet(spec, &rep, &err);
    r.check(ok && rep.completed < static_cast<int>(rep.jobs.size()),
            "control: completion check accepts a killed job");
  }

  if (tr.on()) {
    const double njobs = static_cast<double>(jobs);
    r.metrics["fleet.cache_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
    r.metrics["fleet.slot_occupancy"] = job_wall_sum / (concurrency * round_wall);
    r.metrics["fleet.dispatch_idle_frac"] =
        launch_gap_sum / (concurrency * round_wall);
    r.metrics["fleet.setup_frac"] = setup_sum / job_wall_sum;
    r.metrics["fleet.step_frac"] = step_sum / job_wall_sum;
    r.metrics["fleet.launches_per_job"] = static_cast<double>(r.attempted) / njobs;
    r.metrics["fleet.retries_per_job"] = static_cast<double>(retries) / njobs;
    r.metrics["fleet.hang_kills_per_job"] = static_cast<double>(hang_kills) / njobs;
    r.metrics["gs.ops_per_step"] = ns_steps > 0 ? gs_ops / ns_steps : 0.0;
    r.metrics["gs.words_per_step"] = ns_steps > 0 ? gs_words / ns_steps : 0.0;
    r.metrics["trace_overhead"] = trace_sec / round_wall;

    // Kernel probes on the largest job shape, built here after the last
    // fork (the supervisor must not have entered OpenMP before run_fleet).
    const int threads = thread_budget();
    set_threads(threads);
    Timer t;
    {
      const Tracer::Scope s(tr, "setup.autotune");
      mxm_autotune_init();
    }
    r.metrics["setup.autotune_s"] = t.seconds();
    t.reset();
    const int k = cfg.tiny ? 2 : 8, order = cfg.tiny ? 4 : 12;
    std::unique_ptr<Space> space;
    {
      const Tracer::Scope s(tr, "setup.mesh");
      auto ms = box_spec_2d(linspace(0.0, 2.0 * M_PI, k),
                            linspace(0.0, 2.0 * M_PI, k));
      ms.periodic_x = ms.periodic_y = true;
      space = std::make_unique<Space>(build_mesh(ms, order));
    }
    r.metrics["setup.mesh_s"] = t.seconds();
    NsOptions opt;  // a mid-sweep job: Re = 30
    opt.dt = 0.01;
    opt.viscosity = 1.0 / 30.0;
    t.reset();
    std::unique_ptr<NavierStokes> ns;
    {
      const Tracer::Scope s(tr, "setup.solver");
      ns = std::make_unique<NavierStokes>(*space, 0u, opt);
    }
    r.metrics["setup.solver_s"] = t.seconds();
    probe_host(threads, cfg.tiny, r, tr);
    probe_kernels(*ns, 0u, cfg.seed, threads, r, tr);
  }
}

}  // namespace tsem::bench
