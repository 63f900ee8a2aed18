// terasem_bench: the repository benchmark (benchmark/README.md).
//
//   terasem_bench [--workload NAME|all] [--seed N] [--seconds S]
//                 [--trace 0|1] [--trace-out FILE] [--out FILE]
//                 [--workdir DIR]
//   terasem_bench --smoke
//   terasem_bench compare BASE.json NEW.json [--bounds BENCHMARK.json]
//
// One workload runs in this process and prints its metrics, then one JSON
// line {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout.  `--workload all` (the default) re-runs this binary once per
// workload, so OpenMP state, the mxm dispatch table, the obs registry and
// peak RSS stay separate per workload, and so the fleet and mp workloads
// fork before their process has entered OpenMP.  The exit code is nonzero
// when a correctness check fails.
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_config.hpp"
#include "io/binfile.hpp"
#include "tensor/mxm.hpp"

namespace {

using tsem::bench::kEndToEnd;
using tsem::bench::kPerLayer;
using tsem::bench::Result;
using tsem::bench::RunConfig;
using tsem::bench::Tracer;
using tsem::obs::Json;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Result&, Tracer&);
};

const Workload kWorkloads[] = {
    {"bump_n9", tsem::bench::run_bump_n9},
    {"bump_k432", tsem::bench::run_bump_k432},
    {"tg2d", tsem::bench::run_tg2d},
    {"fleet", tsem::bench::run_fleet_sweep},
    {"ranks_p4", tsem::bench::run_ranks_p4},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "terasem_bench: %s\n"
               "usage: terasem_bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                     [--trace-out FILE] [--out FILE] "
               "[--workdir DIR]\n"
               "       terasem_bench --smoke\n"
               "       terasem_bench compare BASE.json NEW.json "
               "[--bounds BENCHMARK.json]\n",
               why);
  std::exit(2);
}

std::string self_exe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

bool write_text(const std::string& path, const std::string& text) {
  std::string err;
  if (tsem::write_file_atomic(path, text.data(), text.size(), &err)) return true;
  std::fprintf(stderr, "terasem_bench: cannot write %s: %s\n", path.c_str(),
               err.c_str());
  return false;
}

bool read_json(const std::string& path, Json* out) {
  Json::ParseError err;
  if (Json::parse_file(path, out, &err)) return true;
  std::fprintf(stderr, "terasem_bench: %s: %s\n", path.c_str(),
               err.to_string().c_str());
  return false;
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

/// Provenance of a run: host, build, kernel selection, environment.
Json host_meta(const std::string& workdir) {
  Json m = Json::object();
  m["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  m["l3_bytes"] = static_cast<std::int64_t>(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  m["cpu_model"] = cpu_model();
  m["compiler"] = TSEM_BENCH_COMPILER;
  m["flags"] = TSEM_BENCH_FLAGS;
  m["git_sha"] = TSEM_BENCH_GIT_SHA;
  m["thread_budget"] = tsem::bench::thread_budget();
  m["isa_runtime"] = tsem::mxm_isa_runtime_name();
  Json sel = Json::object();
  for (const auto& [shape, variant] : tsem::mxm_autotune_selections())
    sel[shape] = variant;
  m["mxm_selections"] = std::move(sel);
  // Knobs that change what is computed or how: recorded, never set here.
  Json env = Json::object();
  for (const char* k :
       {"OMP_NUM_THREADS", "TSEM_PRECOND_FP32", "TSEM_MXM_KERNEL",
        "TSEM_MXM_DETERMINISTIC", "TSEM_FLEET_CACHE", "TSEM_FLEET_FAULT",
        "TSEM_FLEET_STEP_SLEEP_US", "TSEM_MP_SEND_DELAY"})
    if (const char* v = std::getenv(k)) env[k] = v;
  m["env"] = std::move(env);
  // Fleet checkpoints are fsync'ed files; tmpfs and a disk give different
  // jobs_per_s spreads, so the filesystem is part of the record.
  struct statfs fs{};
  m["workdir_on_tmpfs"] = ::statfs(workdir.c_str(), &fs) == 0 &&
                          fs.f_type == 0x01021994;  // TMPFS_MAGIC
  return m;
}

/// The contract line: exactly correct / attempted / failed / metrics.
Json result_line(const Result& r, bool trace) {
  Json line = Json::object();
  line["correct"] = r.correct;
  line["attempted"] = r.attempted;
  line["failed"] = r.failed;
  Json& metrics = line["metrics"];
  metrics = Json::object();
  for (const auto& d : trace ? kPerLayer : kEndToEnd) {
    const auto it = r.metrics.find(d.name);
    Json& m = metrics[d.name];
    m["value"] = it == r.metrics.end() ? 0.0 : it->second;
    m["unit"] = d.unit;
  }
  return line;
}

int run_one(const RunConfig& cfg, const std::string& out,
            const std::string& trace_out) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads)
    if (cfg.workload == cand.name) w = &cand;
  if (!w) usage(("unknown workload " + cfg.workload).c_str());
  std::filesystem::create_directories(cfg.workdir);

  Tracer tr(cfg.trace);
  Result r;
  const double t0 = tsem::bench::now_s();
  w->run(cfg, r, tr);
  const double elapsed = tsem::bench::now_s() - t0;
  for (const auto& d : kEndToEnd)
    r.check(r.metrics.count(d.name) != 0,
            std::string("workload reported no ") + d.name);

  std::printf("# %s  seed %llu  seconds %g  trace %d  (%.1f s)\n", w->name,
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, elapsed);
  for (const auto& d : cfg.trace ? kPerLayer : kEndToEnd) {
    const auto it = r.metrics.find(d.name);
    std::printf("  %-30s %14.6g %s\n", d.name,
                it == r.metrics.end() ? 0.0 : it->second, d.unit);
  }
  for (const auto& f : r.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  Json rec = result_line(r, cfg.trace);
  rec["workload"] = w->name;
  rec["seed"] = static_cast<std::int64_t>(cfg.seed);
  rec["seconds"] = cfg.seconds;
  rec["trace"] = cfg.trace;
  rec["elapsed_s"] = elapsed;
  rec["meta"] = r.meta;
  rec["host"] = host_meta(cfg.workdir);
  Json fails = Json::array();
  for (const auto& f : r.failures) fails.push_back(f);
  rec["failures"] = std::move(fails);
  if (tr.on()) {
    Json self = Json::object();
    for (const auto& [layer, sec] : tr.self_seconds_by_layer()) self[layer] = sec;
    rec["self_seconds"] = std::move(self);
  }
  bool io_ok = true;
  if (!out.empty()) io_ok = write_text(out, rec.dump(2) + "\n");
  if (!trace_out.empty())
    io_ok = write_text(trace_out, tr.chrome_json(w->name).dump() + "\n") && io_ok;

  std::printf("%s\n", result_line(r, cfg.trace).dump().c_str());
  std::fflush(stdout);
  return r.correct && io_ok ? 0 : 1;
}

/// Run this binary with `args`, capturing its stdout.  Returns the exit
/// status (-1 when it could not run or was killed).
int run_child(const std::vector<std::string>& args, std::string* out) {
  int fd[2];
  if (::pipe(fd) != 0) return -1;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::dup2(fd[1], STDOUT_FILENO);
    ::close(fd[0]);
    ::close(fd[1]);
    const std::string exe = self_exe();
    std::vector<char*> argv{const_cast<char*>(exe.c_str())};
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fd[1]);
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd[0], buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string last_line(const std::string& text) {
  std::string t = text;
  while (!t.empty() && t.back() == '\n') t.pop_back();
  const auto nl = t.rfind('\n');
  return nl == std::string::npos ? t : t.substr(nl + 1);
}

std::vector<std::string> child_args(const RunConfig& cfg, const char* name) {
  char seed[32], secs[32];
  std::snprintf(seed, sizeof seed, "%llu",
                static_cast<unsigned long long>(cfg.seed));
  std::snprintf(secs, sizeof secs, "%.17g", cfg.seconds);
  return {"--workload", name,       "--seed",    seed,
          "--seconds",  secs,       "--trace",   cfg.trace ? "1" : "0",
          "--workdir",  cfg.workdir};
}

int run_all(const RunConfig& cfg, const std::string& out,
            const std::string& trace_out) {
  std::filesystem::create_directories(cfg.workdir);
  Json report = Json::object();
  report["schema"] = "terasem-benchmark-1";
  report["seed"] = static_cast<std::int64_t>(cfg.seed);
  report["seconds"] = cfg.seconds;
  report["trace"] = cfg.trace;
  Json& workloads = report["workloads"];
  workloads = Json::object();
  int rc = 0;
  for (const auto& w : kWorkloads) {
    auto args = child_args(cfg, w.name);
    const std::string rec = cfg.workdir + "/" + w.name + ".json";
    args.insert(args.end(), {"--out", rec});
    if (!trace_out.empty())
      args.insert(args.end(), {"--trace-out", trace_out + "." + w.name + ".json"});
    std::string text;
    const int status = run_child(args, &text);
    std::fputs(text.c_str(), stdout);
    Json r;
    if (status != 0 || !read_json(rec, &r)) {
      std::fprintf(stderr, "terasem_bench: workload %s failed (exit %d)\n",
                   w.name, status);
      rc = 1;
      continue;
    }
    if (!report.find("host")) report["host"] = r["host"];
    workloads[w.name] = r;
  }
  if (!out.empty() && !write_text(out, report.dump(2) + "\n")) rc = 1;
  return rc;
}

// ---- smoke test ---------------------------------------------------------------

/// Checks one contract line; returns the problems found.
std::vector<std::string> check_line(const std::string& text, bool trace) {
  std::vector<std::string> bad;
  Json j;
  if (!Json::parse(last_line(text), &j) || !j.is_object())
    return {"last stdout line is not a JSON object"};
  if (j.size() != 4) bad.push_back("line has " + std::to_string(j.size()) + " keys");
  const Json* correct = j.find("correct");
  const Json* attempted = j.find("attempted");
  const Json* failed = j.find("failed");
  const Json* metrics = j.find("metrics");
  if (!correct || !correct->is_bool() || !correct->as_bool())
    bad.push_back("correct is not true");
  if (!attempted || attempted->type() != Json::Type::Int || attempted->as_int() < 1)
    bad.push_back("attempted is not a whole number >= 1");
  if (!failed || failed->type() != Json::Type::Int || failed->as_int() != 0)
    bad.push_back("failed is not 0");
  const auto& defs = trace ? kPerLayer : kEndToEnd;
  if (!metrics || !metrics->is_object() || metrics->size() != defs.size()) {
    bad.push_back("metrics is not an object of the declared metrics");
    return bad;
  }
  for (const auto& d : defs) {
    const Json* m = metrics->find(d.name);
    const Json* v = m ? m->find("value") : nullptr;
    const Json* u = m ? m->find("unit") : nullptr;
    if (!v || !v->is_number() || !std::isfinite(v->as_double()) || !u ||
        !u->is_string() || u->as_string() != d.unit)
      bad.push_back(std::string("metric ") + d.name + " malformed");
    else if (!trace && !(v->as_double() > 0.0))
      bad.push_back(std::string("end-to-end metric ") + d.name + " is not > 0");
  }
  return bad;
}

/// The metric tables must match BENCHMARK.json name for name, unit for unit.
std::vector<std::string> check_declared(const std::string& path) {
  Json doc;
  if (!read_json(path, &doc)) return {"cannot read " + path};
  std::vector<std::string> bad;
  const auto compare = [&](const char* key, const std::vector<tsem::bench::MetricDef>& defs) {
    const Json* list = doc.find(key);
    if (!list || !list->is_array() || list->size() != defs.size()) {
      bad.push_back(std::string(key) + " differs in length from the binary's table");
      return;
    }
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const Json* n = list->items()[i].find("name");
      const Json* u = list->items()[i].find("unit");
      if (!n || !u || n->as_string() != defs[i].name || u->as_string() != defs[i].unit)
        bad.push_back(std::string(key) + " entry " + std::to_string(i) +
                      " differs from " + defs[i].name);
    }
  };
  compare("end_to_end", kEndToEnd);
  compare("per_layer", kPerLayer);
  return bad;
}

int run_smoke(const RunConfig& base) {
  std::vector<std::string> problems = check_declared(TSEM_BENCHMARK_JSON);
  for (const auto& w : kWorkloads)
    for (const bool trace : {false, true}) {
      RunConfig cfg = base;
      cfg.seconds = 0.2;
      cfg.trace = trace;
      auto args = child_args(cfg, w.name);
      args.emplace_back("--tiny");
      std::string text;
      const int status = run_child(args, &text);
      const std::string tag =
          std::string(w.name) + (trace ? " (traced)" : "") + ": ";
      if (status != 0) problems.push_back(tag + "exit " + std::to_string(status));
      for (std::size_t at = text.find("CHECK FAILED"); at != std::string::npos;
           at = text.find("CHECK FAILED", at + 1))
        problems.push_back(tag + text.substr(at, text.find('\n', at) - at));
      for (const auto& p : check_line(text, trace)) problems.push_back(tag + p);
      std::printf("smoke %-10s trace %d: %s\n", w.name, trace ? 1 : 0,
                  status == 0 ? "ran" : "FAILED");
    }
  for (const auto& p : problems) std::printf("  PROBLEM: %s\n", p.c_str());
  std::printf("smoke: %s\n", problems.empty() ? "ok" : "FAILED");
  return problems.empty() ? 0 : 1;
}

// ---- compare ------------------------------------------------------------------

/// statistics.quantiles(v, n=4) (Python's default 'exclusive' method), so
/// spreads here read exactly like the ones the benchmark's README reports.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int ld = static_cast<int>(v.size()), n = 4, m = ld + 1;
  std::vector<double> q;
  for (int i = 1; i < n; ++i) {
    int j = i * m / n;
    j = std::clamp(j, 1, ld - 1);
    const int delta = i * m - j * n;
    q.push_back((v[j - 1] * (n - delta) + v[j] * delta) / n);
  }
  return q;
}

/// Untraced end-to-end values per "workload/metric" over every run in a
/// report (one run) or a baseline (a list of runs).
std::map<std::string, std::vector<double>> e2e_values(const Json& doc) {
  std::vector<const Json*> runs;
  if (const Json* list = doc.find("runs"))
    for (const Json& r : list->items()) runs.push_back(&r);
  else
    runs.push_back(&doc);
  std::map<std::string, std::vector<double>> out;
  for (const Json* r : runs) {
    const Json* tr = r->find("trace");
    const Json* ws = r->find("workloads");
    if ((tr && tr->as_bool()) || !ws) continue;
    for (const auto& [w, rec] : ws->members()) {
      const Json* ms = rec.find("metrics");
      if (!ms) continue;
      for (const auto& [name, m] : ms->members())
        if (const Json* v = m.find("value")) out[w + "/" + name].push_back(v->as_double());
    }
  }
  return out;
}

int run_compare(const std::string& base_path, const std::string& new_path,
                const std::string& bounds_path) {
  Json base, next, bounds;
  if (!read_json(base_path, &base) || !read_json(new_path, &next) ||
      !read_json(bounds_path, &bounds))
    return 2;
  std::map<std::string, std::pair<bool, double>> spec;  // lower_better, bound
  if (const Json* list = bounds.find("end_to_end"))
    for (const Json& m : list->items())
      spec[m.find("name")->as_string()] = {
          m.find("better")->as_string() == "lower", m.find("bound")->as_double()};
  const auto bv = e2e_values(base), nv = e2e_values(next);
  int regressed = 0;
  std::printf("%-26s %12s %12s %8s %8s %8s  %s\n", "workload/metric", "base",
              "new", "change", "spread", "bound", "verdict");
  for (const auto& [key, b] : bv) {
    const auto it = nv.find(key);
    const auto sp = spec.find(key.substr(key.find('/') + 1));
    if (it == nv.end() || sp == spec.end()) continue;
    const std::vector<double>& n = it->second;
    const auto [lower, bound] = sp->second;
    const double mb = tsem::bench::median(b), mn = tsem::bench::median(n);
    const auto spread = [](const std::vector<double>& v) {
      if (v.size() < 2) return 0.0;
      const auto q = quartiles(v);
      return (q[2] - q[0]) / q[1];
    };
    const double sp_max = std::max(spread(b), spread(n));
    // Positive = worse, as a share of the base median.
    const double worse = (lower ? mn - mb : mb - mn) / mb;
    const bool all_better =
        lower ? *std::max_element(n.begin(), n.end()) < *std::min_element(b.begin(), b.end())
              : *std::min_element(n.begin(), n.end()) > *std::max_element(b.begin(), b.end());
    const char* verdict = "unchanged";
    if (sp_max > bound && !all_better)
      verdict = "unresolved";
    else if (worse > bound)
      verdict = "regressed";
    else if (-worse > bound || (sp_max > bound && all_better))
      verdict = "improved";
    if (std::strcmp(verdict, "regressed") == 0) ++regressed;
    std::printf("%-26s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n", key.c_str(),
                mb, mn, 100.0 * (mn - mb) / mb, 100.0 * sp_max, 100.0 * bound,
                verdict);
  }
  std::printf("%d regressed\n", regressed);
  return regressed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> a(argv + 1, argv + argc);
  if (!a.empty() && a[0] == "compare") {
    if (a.size() != 3 && !(a.size() == 5 && a[3] == "--bounds"))
      usage("compare takes BASE.json NEW.json [--bounds FILE]");
    return run_compare(a[1], a[2], a.size() == 5 ? a[4] : TSEM_BENCHMARK_JSON);
  }

  RunConfig cfg;
  cfg.workload = "all";
  cfg.workdir = (std::filesystem::path(self_exe()).parent_path() / "work").string();
  std::string out, trace_out;
  bool smoke = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= a.size()) usage(("missing value for " + a[i]).c_str());
      return a[++i];
    };
    const std::string& f = a[i];
    if (f == "--workload") {
      cfg.workload = value();
    } else if (f == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (f == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
      if (!(cfg.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (f == "--trace") {
      const std::string& v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (f == "--trace-out") {
      trace_out = value();
    } else if (f == "--out") {
      out = value();
    } else if (f == "--workdir") {
      cfg.workdir = value();
    } else if (f == "--tiny") {
      // Smoke sizes, with each correctness check also fed a wrong input.
      cfg.tiny = true;
    } else if (f == "--smoke") {
      smoke = true;
    } else {
      usage(("unknown argument " + f).c_str());
    }
  }
  if (smoke) return run_smoke(cfg);
  if (cfg.workload == "all") return run_all(cfg, out, trace_out);
  return run_one(cfg, out, trace_out);
}
