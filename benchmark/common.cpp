// Metric tables, statistics, the span recorder, and the host and kernel
// probes shared by the workloads (bench.hpp).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/dealias.hpp"
#include "core/flops.hpp"
#include "core/helmholtz.hpp"
#include "core/operators.hpp"
#include "ns/navier_stokes.hpp"
#include "solver/schwarz.hpp"
#include "tensor/mxm.hpp"

namespace tsem::bench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},  {"op_s_p50", "s"},  {"op_s_p90", "s"},
    {"ops_per_s", "1/s"}, {"rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"host.triad_gbs", "GB/s"},
    {"host.fma_gflops", "GF/s"},
    {"trace_overhead", "ratio"},
    {"setup.autotune_s", "s"},
    {"setup.mesh_s", "s"},
    {"setup.solver_s", "s"},
    {"tensor.mxm_gflops", "GF/s"},
    {"tensor.mxm_roofline", "ratio"},
    {"gs.op_s", "s"},
    {"gs.op_gbs", "GB/s"},
    {"gs.ops_per_step", "count"},
    {"gs.words_per_step", "count"},
    {"core.apply_E_s", "s"},
    {"core.apply_E_gflops", "GF/s"},
    {"core.apply_E_roofline", "ratio"},
    {"core.helmholtz_apply_s", "s"},
    {"core.helmholtz_apply_gflops", "GF/s"},
    {"core.convect_s", "s"},
    {"core.dealias_s", "s"},
    {"solver.schwarz_apply_s", "s"},
    {"solver.xxt_solve_s", "s"},
    {"solver.schwarz_local_frac", "ratio"},
    {"solver.schwarz_coarse_frac", "ratio"},
    {"solver.local_solves_per_step", "count"},
    {"ns.pressure_frac", "ratio"},
    {"ns.helmholtz_frac", "ratio"},
    {"ns.rest_frac", "ratio"},
    {"ns.pres_iters_per_step", "count"},
    {"ns.helm_iters_per_step", "count"},
    {"ns.gflops", "GF/s"},
    {"ns.thread_speedup", "ratio"},
    {"fleet.setup_frac", "ratio"},
    {"fleet.step_frac", "ratio"},
    {"fleet.cache_hit_ratio", "ratio"},
    {"fleet.slot_occupancy", "ratio"},
    {"fleet.dispatch_idle_frac", "ratio"},
    {"fleet.launches_per_job", "count"},
    {"fleet.retries_per_job", "count"},
    {"fleet.hang_kills_per_job", "count"},
    {"mp.compute_frac", "ratio"},
    {"mp.gs_frac", "ratio"},
    {"mp.allreduce_frac", "ratio"},
    {"mp.coarse_frac", "ratio"},
    {"mp.exchange_wait_frac", "ratio"},
    {"mp.words_per_iter", "count"},
    {"mp.msgs_per_iter", "count"},
    {"mp.scaling_eff", "ratio"},
};

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int thread_budget() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, hw));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

// ---- Tracer ---------------------------------------------------------------

int Tracer::begin(const std::string& name) {
  if (!on_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back(),
                    static_cast<int>(::getpid()), 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  open_.erase(std::find(open_.begin(), open_.end(), id));
}

int Tracer::add(const std::string& name, double t0, double t1, int parent,
                int pid, int tid) {
  if (!on_) return -1;
  spans_.push_back({name, t0, t1, parent, pid, tid});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children may overlap each other (concurrent fleet jobs under one
  // round), so a parent's covered time is the union of its children.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a0, a1] : iv) {
      const double b0 = std::max(a0, s.t0), b1 = std::min(a1, s.t1);
      if (b1 <= b0) continue;
      if (b0 > hi) {
        if (hi > lo) covered += hi - lo;
        lo = b0;
        hi = b1;
      } else {
        hi = std::max(hi, b1);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[s.name.substr(0, s.name.find('.'))] += (s.t1 - s.t0) - covered;
  }
  return self;
}

obs::Json Tracer::chrome_json(const std::string& trace_id) const {
  double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  obs::Json events = obs::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::Json e = obs::Json::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = (s.t0 - origin) * 1e6;
    e["dur"] = (s.t1 - s.t0) * 1e6;
    e["pid"] = s.pid;
    e["tid"] = s.tid;
    obs::Json& args = e["args"];
    args["id"] = static_cast<std::int64_t>(i);
    args["parent"] = s.parent;
    args["trace"] = trace_id;
    events.push_back(std::move(e));
  }
  obs::Json doc = obs::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

// ---- host probes ------------------------------------------------------------

namespace {

/// Best of `reps` timings of f (host probes report the best pass, the
/// STREAM convention: interference only ever slows a pass down).
template <class F>
double best_seconds(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Median seconds per call of f over at least `min_calls` calls and
/// `budget` seconds, after one untimed warm-up call.
template <class F>
double seconds_per_call(double budget, F&& f) {
  f();
  std::vector<double> t;
  double total = 0.0;
  while (t.size() < 5 || total < budget) {
    const Timer c;
    f();
    t.push_back(c.seconds());
    total += t.back();
  }
  return median(std::move(t));
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

}  // namespace

void probe_host(int threads, bool tiny, Result& r, Tracer& tr) {
  {
    const Tracer::Scope span(tr, "host.triad");
    // 128 MiB per array: four times the 32 MiB L3 a 4-core slice of a
    // current server part shares.  sysconf's L3 size is recorded beside
    // it (on a VM it can report the whole socket's L3).
    const std::size_t triad_bytes = tiny ? (8u << 20) : (128u << 20);
    const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    const std::size_t n = triad_bytes / sizeof(double);
    std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
    const double s = 0.5;
    const double sec = best_seconds(5, [&] {
#pragma omp parallel for num_threads(threads) schedule(static)
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    });
    // STREAM accounting: two reads and one write per element.
    r.metrics["host.triad_gbs"] = 3.0 * static_cast<double>(triad_bytes) / sec / 1e9;
    r.meta["host_triad_array_bytes"] = static_cast<std::int64_t>(triad_bytes);
    r.meta["host_l3_bytes"] = static_cast<std::int64_t>(l3);
    r.meta["host_triad_checksum"] = a[n / 2];
  }
  {
    const Tracer::Scope span(tr, "host.fma");
    constexpr int kChains = 32;  // independent FMA chains per thread
    constexpr long kIters = 1L << 22;
    double sink = 0.0;
    const double sec = best_seconds(5, [&] {
#pragma omp parallel num_threads(threads) reduction(+ : sink)
      {
        double acc[kChains];
        for (int j = 0; j < kChains; ++j) acc[j] = 1.0 + 1e-3 * j;
        const double x = 0.999999, y = 1e-6;
        for (long it = 0; it < kIters; ++it) {
#pragma omp simd
          for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * x + y;
        }
        for (int j = 0; j < kChains; ++j) sink += acc[j];
      }
    });
    r.metrics["host.fma_gflops"] =
        2.0 * kChains * static_cast<double>(kIters) * threads / sec / 1e9;
    r.meta["host_fma_checksum"] = sink;
  }
  r.meta["host_probe_threads"] = threads;
}

// ---- kernel probes ------------------------------------------------------------

void probe_kernels(const NavierStokes& ns, std::uint32_t dirichlet,
                   std::uint64_t seed, int threads, Result& r, Tracer& tr) {
  const Tracer::Scope probes(tr, "probe.kernels");
  const double budget = 0.15;
  const Space& space = ns.space();
  const Mesh& m = space.mesh();
  const PressureSystem& psys = ns.pressure_system();
  const std::size_t nl = space.nlocal(), np = psys.nloc();
  const int dim = m.dim;
  const double peak = r.metrics.at("host.fma_gflops");
  const double bw = r.metrics.at("host.triad_gbs");
  // Roofline bound of a kernel moving `bytes` (computed from array sizes)
  // for `flops`: min(peak, bandwidth * intensity).
  const auto roofline = [&](double flops, double bytes, double sec) {
    return flops / sec / 1e9 / std::min(peak, bw * flops / bytes);
  };

  {
    const Tracer::Scope span(tr, "core.apply_E");
    const auto p = random_vector(np, seed + 1);
    std::vector<double> ep(np);
    const double sec =
        seconds_per_call(budget, [&] { psys.apply_E(p.data(), ep.data()); });
    const double flops = e_apply_flops(psys);
    // p in, Ep out, the dim^2 Gauss geometric factors read by D^T and by D,
    // dim velocity temporaries written, gathered, scaled and read back,
    // and the mass inverse and mask.
    const double bytes =
        8.0 * (2.0 * np + 2.0 * dim * dim * np + 5.0 * dim * nl + 2.0 * nl);
    r.metrics["core.apply_E_s"] = sec;
    r.metrics["core.apply_E_gflops"] = flops / sec / 1e9;
    r.metrics["core.apply_E_roofline"] = roofline(flops, bytes, sec);
  }
  std::vector<std::vector<double>> u(static_cast<std::size_t>(dim)),
      w(static_cast<std::size_t>(dim));
  const double* uin[3] = {nullptr, nullptr, nullptr};
  double* wout[3] = {nullptr, nullptr, nullptr};
  for (int c = 0; c < dim; ++c) {
    u[c] = random_vector(nl, seed + 10 + static_cast<std::uint64_t>(c));
    w[c].assign(nl, 0.0);
    uin[c] = u[c].data();
    wout[c] = w[c].data();
  }
  {
    const Tracer::Scope span(tr, "core.helmholtz_apply");
    // The velocity operator of a BDF2 step: h1 = nu, h2 = 1.5 / dt.
    const HelmholtzOp hop(space, ns.options().viscosity,
                          1.5 / ns.options().dt, space.make_mask(dirichlet));
    const double sec = seconds_per_call(
        budget, [&] { hop.apply_multi(uin, wout, dim); });
    const double flops = dim * (stiffness_flops(m) + 3.0 * nl);
    r.metrics["core.helmholtz_apply_s"] = sec;
    r.metrics["core.helmholtz_apply_gflops"] = flops / sec / 1e9;
  }
  {
    const Tracer::Scope span(tr, "gs.op");
    // Only values of shared-id groups are read and written.
    const auto mult = space.gs().multiplicity();
    const double shared = static_cast<double>(
        std::count_if(mult.begin(), mult.end(), [](double x) { return x > 1.5; }));
    std::vector<double> g(nl);
    std::vector<double> t;
    t.reserve(64);
    space.gs().op(w[0].data());  // warm
    double total = 0.0;
    while (t.size() < 5 || total < budget) {
      std::copy(u[0].begin(), u[0].end(), g.begin());
      const Timer c;
      space.gs().op(g.data());
      t.push_back(c.seconds());
      total += t.back();
    }
    const double sec = median(std::move(t));
    r.metrics["gs.op_s"] = sec;
    // Read + write of every shared value, plus its 4-byte gather index.
    r.metrics["gs.op_gbs"] = shared * (16.0 + 4.0) / sec / 1e9;
  }
  {
    const Tracer::Scope span(tr, "core.convect");
    TensorWork work;
    const double sec = seconds_per_call(budget, [&] {
      convect_local_multi(m, uin, uin, wout, dim, work);
    });
    r.metrics["core.convect_s"] = sec;
  }
  {
    const Tracer::Scope span(tr, "core.dealias");
    const DealiasedConvection dc(m);
    TensorWork work;
    const double sec = seconds_per_call(budget, [&] {
      for (int c = 0; c < dim; ++c) dc.apply(uin, uin[c], wout[c], work);
    });
    r.metrics["core.dealias_s"] = sec;
  }
  {
    const Tracer::Scope span(tr, "solver.schwarz_apply");
    const SchwarzPrecond sp(psys, ns.options().schwarz);
    const auto rr = random_vector(np, seed + 20);
    std::vector<double> z(np);
    r.metrics["solver.schwarz_apply_s"] =
        seconds_per_call(budget, [&] { sp.apply(rr.data(), z.data()); });
    if (const CoarseSolver* cs = sp.coarse()) {
      const auto b = random_vector(static_cast<std::size_t>(cs->n()), seed + 21);
      std::vector<double> x(b.size());
      r.metrics["solver.xxt_solve_s"] =
          seconds_per_call(budget, [&] { cs->solve(b.data(), x.data()); });
      r.meta["coarse_n"] = cs->n();
    }
  }
  {
    const Tracer::Scope span(tr, "tensor.mxm");
    // The collapsed-plane shape of a tensor apply at this order:
    // (N+1) x (N+1) times (N+1) x (N+1)^(d-1).
    const int n1 = m.n1d();
    const int ncols = dim == 3 ? n1 * n1 : n1;
    const long calls = std::max(64L, 40'000'000L / (2L * n1 * n1 * ncols));
    const auto a = random_vector(static_cast<std::size_t>(n1 * n1), seed + 30);
    const auto b = random_vector(static_cast<std::size_t>(n1 * ncols), seed + 31);
    const double sec = best_seconds(5, [&] {
#pragma omp parallel num_threads(threads)
      {
        std::vector<double> c(static_cast<std::size_t>(n1 * ncols));
        for (long i = 0; i < calls; ++i)
          mxm(a.data(), n1, b.data(), n1, c.data(), ncols);
      }
    });
    const double gf = 2.0 * n1 * n1 * ncols * static_cast<double>(calls) *
                      threads / sec / 1e9;
    r.metrics["tensor.mxm_gflops"] = gf;
    r.metrics["tensor.mxm_roofline"] = gf / peak;
    r.meta["mxm_probe_shape"] = std::to_string(n1) + "x" + std::to_string(n1) +
                                "x" + std::to_string(ncols);
    r.meta["mxm_probe_variant"] = mxm_selected_name(n1, n1, ncols);
  }
}

}  // namespace tsem::bench
