// Shared pieces of the repository benchmark (benchmark/README.md): the run
// configuration, the result record every workload fills, the metric
// tables, sample statistics, the span recorder behind --trace, and the
// host and kernel probes the traced pass reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mesh/spec.hpp"
#include "obs/json.hpp"

namespace tsem {
class Mesh;
class NavierStokes;
struct NsOptions;
}

namespace tsem::bench {

/// One workload run, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1999;
  double seconds = 10.0;  ///< measured wall budget of the closed loop
  bool trace = false;     ///< traced pass: report the per-layer metrics
  /// --smoke child run: tiny sizes, and after the real checks each check
  /// is fed a deliberately wrong input and must fail (proves it can fail).
  bool tiny = false;
  std::string workdir;  ///< scratch files (fleet checkpoints)
};

/// Everything one workload run reports.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  obs::Json meta = obs::Json::object();
  std::vector<std::string> failures;

  /// Record a correctness check; a failed check clears `correct`.
  void check(bool ok, const std::string& what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metrics BENCHMARK.json declares, in its order.  Every workload
/// reports every end-to-end metric; a per-layer metric of a layer the
/// workload does not exercise reads 0.  So metrics of layers only some
/// workloads run are shares, counts or rates, never seconds: every time
/// reported is a measured one.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// Thread budget of every workload: OpenMP threads for the single-process
/// solves, worker processes for the fleet, ranks for the mp session.
int thread_budget();

/// OpenMP team size of the next parallel regions (and of forked children,
/// which inherit it).
void set_threads(int n);

// ---- statistics ---------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of the samples.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Seconds on the system-wide monotonic clock (comparable across the
/// processes the fleet and mp workloads fork).
double now_s();

/// Largest peak resident set of this process or any child it has reaped,
/// in MiB.
double peak_rss_mb();

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder for the traced pass.  Spans come from the
/// benchmark's own code around each call into a layer; fleet job spans
/// and mp rank spans are added after the fact from the records those
/// layers keep.  Written at the end as Chrome trace-event JSON.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Open a span as a child of the innermost open span; returns its id
  /// (-1 when tracing is off).
  int begin(const std::string& name);
  void end(int id);
  /// Add a finished span recorded elsewhere (another process).
  int add(const std::string& name, double t0, double t1, int parent, int pid,
          int tid);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] obs::Json chrome_json(const std::string& trace_id) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
    int pid = 0, tid = 0;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- probes (traced pass) -----------------------------------------------

/// Host roofline denominators measured at `threads` threads: STREAM triad
/// bandwidth over three 128 MiB arrays (8 MiB when tiny), and FMA peak.
/// Fills host.triad_gbs and host.fma_gflops.
void probe_host(int threads, bool tiny, Result& r, Tracer& tr);

/// Timed calls into the layer kernels on the objects of a solver: E apply,
/// Helmholtz apply, gather-scatter, convection (collocated and dealiased),
/// Schwarz apply, XXT solve, and mxm at the solver's order (on `threads`
/// threads, like the host probes).  Needs probe_host to have run
/// (rooflines divide by its numbers).
void probe_kernels(const NavierStokes& ns, std::uint32_t dirichlet,
                   std::uint64_t seed, int threads, Result& r, Tracer& tr);

// ---- workloads ----------------------------------------------------------

/// The Fig 8 bump channel (paper §7) that bump_n9, bump_k432 and ranks_p4
/// share: 6 x 3 x 3 elements before `refine` oct-refinements, periodic in
/// y, Dirichlet inflow and walls, Re = 1600.
Mesh bump_mesh(int refine, int order);
NsOptions bump_options();
inline constexpr std::uint32_t kBumpDirichlet =
    (1u << kFaceXLo) | (1u << kFaceZLo) | (1u << kFaceZHi);

void run_bump_n9(const RunConfig& cfg, Result& r, Tracer& tr);
void run_bump_k432(const RunConfig& cfg, Result& r, Tracer& tr);
void run_tg2d(const RunConfig& cfg, Result& r, Tracer& tr);
void run_fleet_sweep(const RunConfig& cfg, Result& r, Tracer& tr);
void run_ranks_p4(const RunConfig& cfg, Result& r, Tracer& tr);

}  // namespace tsem::bench
