// The ranks_p4 workload: P = 4 forked mp ranks over the RSB partition of
// the bump_k432 mesh (K = 432) run the communication skeleton of a
// Schwarz-PCG iteration, built only from public mp calls:
//
//   Helmholtz element sweep + gather-scatter (overlapped_gs_apply),
//   ghost exchange + Schwarz local solves (overlapped_ghost_exchange),
//   ghost returns (DistGhost::scatter_add), XXT coarse solve
//   (dist_xxt_solve), two allreduces, one barrier.
//
// The order is 7, not bump_k432's 5: at order 5 the latency-bound phases
// (allreduce, the coarse tree walk) were half the iteration, and its
// median moved ~7% between runs with the host's core placement; at order
// 7 it moves ~3.5%.
//
// Inputs are seeded and constant across iterations, so the last
// iteration's outputs are compared bitwise against the single-process
// references (dist_gs_reference, GhostExchange + SchwarzLocalSolver,
// dist_xxt_reference, the ascending-rank sum).  A P = 1 leg runs the same
// iteration for the scaling efficiency.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/operators.hpp"
#include "mp/dist_gs.hpp"
#include "mp/dist_schwarz.hpp"
#include "mp/dist_xxt.hpp"
#include "mp/overlap.hpp"
#include "mp/runtime.hpp"
#include "ns/navier_stokes.hpp"
#include "sim/cluster.hpp"
#include "solver/schwarz.hpp"
#include "tensor/mxm.hpp"

namespace tsem::bench {
namespace {

using mp::Phase;

constexpr int kRanks = 4;
/// Helmholtz coefficients of the element sweeps (fixed: the references
/// replay them exactly).
constexpr double kH1 = 1.0 / 1600.0;
constexpr double kH2 = 100.0;
/// Traced iterations per rank whose spans are kept (the even ones).
constexpr std::size_t kMaxTraced = 256;
constexpr std::size_t kSpansPerIter = 4;  // iter, apply, coarse, allreduce

/// Every plan one leg executes, built in the parent before the fork.
struct Plans {
  int nranks = 0;
  mp::DistGsPlan gs;
  std::unique_ptr<mp::DistGhost> ghost;
  mp::DistXxtPlan xxt;
  std::vector<mp::OverlapSplit> gs_split, sw_split;
};

Plans build_plans(const Mesh& mesh, const ClusterSim& sim, int p) {
  const RankSchedule sched = sim.schedule(p);
  Plans pl;
  pl.nranks = p;
  pl.gs = mp::build_dist_gs(mesh.node_id, mesh.npe, sched.elem_rank, p);
  pl.ghost = std::make_unique<mp::DistGhost>(*sim.ghost_exchange(),
                                             sched.elem_rank, p);
  pl.xxt = mp::build_dist_xxt(*sim.xxt(), p);
  for (int r = 0; r < p; ++r) {
    pl.gs_split.push_back(mp::classify_elements(
        pl.gs.ranks[static_cast<std::size_t>(r)], pl.gs.npe));
    pl.sw_split.push_back(mp::classify_elements(
        pl.ghost->plan().ranks[static_cast<std::size_t>(r)],
        pl.ghost->plan().npe));
  }
  return pl;
}

/// Channels for every neighbor pair of a dist-gs plan, both directions.
std::vector<mp::GsChannels> make_channels(mp::MpSession& s,
                                          const mp::DistGsPlan& plan,
                                          std::size_t nslots) {
  std::map<std::pair<int, int>, mp::ShmChannel*> by_pair;
  for (int r = 0; r < plan.nranks; ++r) {
    const auto& rk = plan.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < rk.nbrs.size(); ++i)
      by_pair[{r, rk.nbrs[i]}] = s.channel(rk.send_ix[i].size(), nslots);
  }
  std::vector<mp::GsChannels> out(static_cast<std::size_t>(plan.nranks));
  for (int r = 0; r < plan.nranks; ++r)
    for (int q : plan.ranks[static_cast<std::size_t>(r)].nbrs) {
      out[static_cast<std::size_t>(r)].to.push_back(by_pair.at({r, q}));
      out[static_cast<std::size_t>(r)].from.push_back(by_pair.at({q, r}));
    }
  return out;
}

struct Inputs {
  std::vector<double> u, p, b;
};

/// What one leg measured and computed (outputs of the last iteration).
struct Leg {
  bool ok = false;
  std::string err;
  std::vector<double> iter_wall;  ///< rank 0, barrier to barrier
  std::vector<double> traced, untraced;
  double phase[mp::kNumPhases] = {0, 0, 0, 0};
  double exchange = 0.0;  ///< max over ranks of OverlapTimes::exchange
  std::vector<double> w, z, x, dots;
};

Leg run_leg(const Mesh& mesh, const GhostExchange& gx,
            const SchwarzLocalSolver& slocal, const Plans& pl,
            const Inputs& in, double budget, std::size_t min_iters,
            int parent_span, Tracer& tr) {
  const bool trace = parent_span >= 0;
  const int p = pl.nranks;
  const std::size_t max_iters = 200000;
  const mp::DistGhost& ghost = *pl.ghost;
  const std::size_t npe_press = ghost.npress_per_elem();
  const std::size_t np_glob = static_cast<std::size_t>(mesh.nelem) * npe_press;
  const std::size_t n = static_cast<std::size_t>(pl.xxt.n);

  mp::MpOptions opt;
  opt.nranks = p;
  mp::MpSession session(opt);
  const auto gs_ch = make_channels(session, pl.gs, 1);
  const auto sw_ch = make_channels(session, ghost.plan(),
                                   static_cast<std::size_t>(gx.nlayers()));
  mp::DistXxtPlan xplan = pl.xxt;  // channels belong to one session
  xplan.attach_channels(session);

  double* u_sh = session.shared_doubles(pl.gs.nglobal);
  double* p_sh = session.shared_doubles(np_glob);
  double* b_sh = session.shared_doubles(n);
  double* w_out = session.shared_doubles(pl.gs.nglobal);
  double* z_out = session.shared_doubles(np_glob);
  double* x_out = session.shared_doubles(n);
  double* dots = session.shared_doubles(2 * static_cast<std::size_t>(p));
  double* exch = session.shared_doubles(static_cast<std::size_t>(p));
  double* walls = session.shared_doubles(max_iters);
  double* iters_done = session.shared_doubles(1);
  double* stop = session.shared_doubles(1);
  double* spans = session.shared_doubles(static_cast<std::size_t>(p) *
                                         kMaxTraced * kSpansPerIter * 2);
  double* pids = session.shared_doubles(static_cast<std::size_t>(p));
  std::memcpy(u_sh, in.u.data(), in.u.size() * sizeof(double));
  std::memcpy(p_sh, in.p.data(), in.p.size() * sizeof(double));
  std::memcpy(b_sh, in.b.data(), in.b.size() * sizeof(double));

  Leg leg;
  const bool ok = session.run(
      [&](mp::MpRank& ctx) {
        const int r = ctx.rank();
        const auto& grk = pl.gs.ranks[static_cast<std::size_t>(r)];
        const auto& srk = ghost.plan().ranks[static_cast<std::size_t>(r)];
        const std::size_t ns = srk.nlocal, ne = srk.elems.size();
        const std::size_t ng = static_cast<std::size_t>(gx.nlayers()) * ns;
        std::vector<double> u(grk.nlocal), w(grk.nlocal);
        std::vector<double> pl_(ne * npe_press), z(ne * npe_press);
        std::vector<double> g(ng), v(ng), lwork(slocal.work_doubles());
        std::vector<std::int32_t> geo;
        TensorWork twork;
        mp::GsScratch gs_scratch;
        mp::DistGhost::Scratch sw_scratch;
        mp::XxtScratch xxt_scratch;
        for (std::size_t l = 0; l < grk.nlocal; ++l)
          u[l] = u_sh[pl.gs.global_index(r, l)];
        for (std::size_t e = 0; e < ne; ++e)
          std::memcpy(pl_.data() + e * npe_press,
                      p_sh + static_cast<std::size_t>(srk.elems[e]) * npe_press,
                      npe_press * sizeof(double));
        const auto helm = [&](const std::int32_t* ls, std::size_t nn) {
          if (nn == 0) return;
          geo.resize(nn);
          for (std::size_t i = 0; i < nn; ++i) geo[i] = grk.elems[ls[i]];
          apply_helmholtz_local_elems(mesh, kH1, kH2, geo.data(), ls, nn,
                                      u.data(), w.data(), twork);
        };
        const auto sw_solve = [&](const std::int32_t* ls, std::size_t nn) {
          if (nn == 0) return;
          geo.resize(nn);
          for (std::size_t i = 0; i < nn; ++i) geo[i] = srk.elems[ls[i]];
          slocal.solve_elems(geo.data(), ls, nn, pl_.data(), g.data(), ns,
                             z.data(), v.data(), lwork.data());
        };
        pids[r] = static_cast<double>(::getpid());
        double exch_acc = 0.0, d1 = 0.0, d2 = 0.0;
        if (!ctx.barrier()) return 1;
        const double t_start = now_s();
        double t_prev = t_start;
        for (std::size_t k = 0;; ++k) {
          const double t0 = now_s();
          mp::OverlapTimes ot;
          if (!mp::overlapped_gs_apply(grk, pl.gs_split[static_cast<std::size_t>(r)],
                                       ctx, gs_ch[static_cast<std::size_t>(r)],
                                       w.data(), GsOp::Add, gs_scratch, helm,
                                       true, &ot))
            return 2;
          std::fill(z.begin(), z.end(), 0.0);
          if (!mp::overlapped_ghost_exchange(
                  ghost, pl.sw_split[static_cast<std::size_t>(r)], r, ctx,
                  sw_ch[static_cast<std::size_t>(r)], pl_.data(), g.data(),
                  sw_scratch, sw_solve, true, &ot))
            return 3;
          const double t1 = now_s();
          if (!ghost.scatter_add(r, ctx, sw_ch[static_cast<std::size_t>(r)],
                                 v.data(), z.data(), sw_scratch))
            return 4;
          const double t2 = now_s();
          ctx.phase_add(Phase::Compute, ot.compute);
          ctx.phase_add(Phase::Gs, ot.exchange + (t2 - t1));
          exch_acc += ot.exchange;
          if (!mp::dist_xxt_solve(xplan, r, ctx, b_sh, x_out, xxt_scratch))
            return 5;
          const double t3 = now_s();
          ctx.phase_add(Phase::Coarse, t3 - t2);
          // The two PCG inner products: plain serial partial sums, summed
          // across ranks in ascending rank order.
          double s1 = 0.0, s2 = 0.0;
          for (std::size_t l = 0; l < w.size(); ++l) s1 += u[l] * w[l];
          for (std::size_t l = 0; l < z.size(); ++l) s2 += pl_[l] * z[l];
          if (!ctx.allreduce_sum(s1, &d1) || !ctx.allreduce_sum(s2, &d2))
            return 6;
          const double t4 = now_s();
          ctx.phase_add(Phase::Allreduce, t4 - t3);
          // Rank 0 decides before the barrier; everyone reads after it.
          if (r == 0 && ((k + 1 >= min_iters && t4 - t_start >= budget) ||
                         k + 1 >= max_iters))
            *stop = 1.0;
          if (!ctx.barrier()) return 7;
          const double t5 = now_s();
          if (r == 0) walls[k] = t5 - t_prev;
          t_prev = t5;
          if (trace && k % 2 == 0 && k / 2 < kMaxTraced) {
            double* sp = spans + ((static_cast<std::size_t>(r) * kMaxTraced +
                                   k / 2) * kSpansPerIter) * 2;
            const double iv[kSpansPerIter * 2] = {t0, t5, t0, t2,
                                                  t2, t3, t3, t4};
            std::memcpy(sp, iv, sizeof iv);
          }
          if (*stop != 0.0) {
            if (r == 0) *iters_done = static_cast<double>(k + 1);
            break;
          }
        }
        for (std::size_t l = 0; l < grk.nlocal; ++l)
          w_out[pl.gs.global_index(r, l)] = w[l];
        for (std::size_t e = 0; e < ne; ++e)
          std::memcpy(z_out + static_cast<std::size_t>(srk.elems[e]) * npe_press,
                      z.data() + e * npe_press, npe_press * sizeof(double));
        dots[2 * r] = d1;
        dots[2 * r + 1] = d2;
        exch[r] = exch_acc;
        return 0;
      },
      &leg.err);
  leg.ok = ok;
  if (!ok) return leg;

  const auto iters = static_cast<std::size_t>(*iters_done);
  leg.iter_wall.assign(walls, walls + iters);
  for (std::size_t k = 0; k < std::min(iters, 2 * kMaxTraced); ++k)
    (k % 2 == 0 ? leg.traced : leg.untraced).push_back(walls[k]);
  for (int ph = 0; ph < mp::kNumPhases; ++ph)
    leg.phase[ph] = session.phase_max_seconds(static_cast<Phase>(ph));
  leg.exchange = *std::max_element(exch, exch + p);
  leg.w.assign(w_out, w_out + pl.gs.nglobal);
  leg.z.assign(z_out, z_out + np_glob);
  leg.x.assign(x_out, x_out + n);
  leg.dots.assign(dots, dots + 2 * p);

  if (trace) {
    static const char* kNames[kSpansPerIter] = {"mp.iter", "mp.apply",
                                                "mp.coarse", "mp.allreduce"};
    const std::size_t ntraced = std::min((iters + 1) / 2, kMaxTraced);
    for (int r = 0; r < p; ++r)
      for (std::size_t i = 0; i < ntraced; ++i) {
        const double* sp = spans + ((static_cast<std::size_t>(r) * kMaxTraced +
                                     i) * kSpansPerIter) * 2;
        const int pid = static_cast<int>(pids[r]);
        const int it = tr.add(kNames[0], sp[0], sp[1], parent_span, pid, 0);
        for (std::size_t j = 1; j < kSpansPerIter; ++j)
          tr.add(kNames[j], sp[2 * j], sp[2 * j + 1], it, pid, 0);
      }
  }
  return leg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Single-process references for one leg's plans.  With `perturb`, the
/// operator input carries a 1e-9 change (the negative control).
struct References {
  std::vector<double> w, z, x, dots;
};

References references(const Mesh& mesh, const GhostExchange& gx,
                      const SchwarzLocalSolver& slocal, const Plans& pl,
                      const Inputs& in, bool perturb) {
  References ref;
  std::vector<double> u = in.u;
  if (perturb) u[0] += 1e-9;
  ref.w.resize(u.size());
  {
    TensorWork work;
    apply_helmholtz_local(mesh, kH1, kH2, u.data(), ref.w.data(), work);
  }
  mp::dist_gs_reference(pl.gs, ref.w.data(), GsOp::Add);

  const std::size_t ng = static_cast<std::size_t>(gx.nlayers()) * gx.nslots();
  std::vector<double> ghost(ng), vout(ng), work(slocal.work_doubles());
  gx.exchange(in.p.data(), ghost.data());
  std::vector<std::int32_t> all(static_cast<std::size_t>(mesh.nelem));
  for (int e = 0; e < mesh.nelem; ++e) all[static_cast<std::size_t>(e)] = e;
  ref.z.assign(in.p.size(), 0.0);
  slocal.solve_elems(all.data(), nullptr, all.size(), in.p.data(),
                     ghost.data(), gx.nslots(), ref.z.data(), vout.data(),
                     work.data());
  gx.scatter_add(vout.data(), ref.z.data());

  ref.x.resize(static_cast<std::size_t>(pl.xxt.n));
  mp::dist_xxt_reference(pl.xxt, in.b.data(), ref.x.data());

  // Ascending-rank sums of the rank-local partials, replicated on every
  // rank.
  const mp::DistGhost& dg = *pl.ghost;
  const std::size_t npe_press = dg.npress_per_elem();
  double d1 = 0.0, d2 = 0.0;
  for (int r = 0; r < pl.nranks; ++r) {
    const auto& grk = pl.gs.ranks[static_cast<std::size_t>(r)];
    double s1 = 0.0;
    for (std::size_t l = 0; l < grk.nlocal; ++l) {
      const std::size_t gi = pl.gs.global_index(r, l);
      s1 += u[gi] * ref.w[gi];
    }
    double s2 = 0.0;
    for (const std::int32_t e : dg.plan().ranks[static_cast<std::size_t>(r)].elems)
      for (std::size_t q = 0; q < npe_press; ++q) {
        const std::size_t gi = static_cast<std::size_t>(e) * npe_press + q;
        s2 += in.p[gi] * ref.z[gi];
      }
    d1 += s1;
    d2 += s2;
  }
  for (int r = 0; r < pl.nranks; ++r) {
    ref.dots.push_back(d1);
    ref.dots.push_back(d2);
  }
  return ref;
}

bool matches(const Leg& leg, const References& ref) {
  return same_bits(leg.w, ref.w) && same_bits(leg.z, ref.z) &&
         same_bits(leg.x, ref.x) && same_bits(leg.dots, ref.dots);
}

/// Words and messages one iteration sends through the shm channels (the
/// allreduces go through the session's slots, not channels).
std::pair<double, double> channel_traffic(const Plans& pl, int nlayers) {
  double words = 0.0, msgs = 0.0;
  for (int r = 0; r < pl.nranks; ++r) {
    words += static_cast<double>(pl.gs.send_words(r));
    msgs += static_cast<double>(pl.gs.ranks[static_cast<std::size_t>(r)].nbrs.size());
    // Ghost exchange and scatter_add: one anchor gs per layer each way.
    words += 2.0 * nlayers * static_cast<double>(pl.ghost->plan().send_words(r));
    msgs += 2.0 * nlayers *
            static_cast<double>(
                pl.ghost->plan().ranks[static_cast<std::size_t>(r)].nbrs.size());
    // XXT: every fan-in send is mirrored by a fan-out send.
    for (const auto& st : pl.xxt.ranks[static_cast<std::size_t>(r)].steps)
      if (st.send) {
        words += 2.0 * static_cast<double>(st.cols.size());
        msgs += 2.0;
      }
  }
  return {words, msgs};
}

}  // namespace

void run_ranks_p4(const RunConfig& cfg, Result& r, Tracer& tr) {
  // Ranks are forked: the parent stays out of multi-threaded OpenMP until
  // every session has run.
  set_threads(1);

  // ---- setup, three times: autotune, mesh, partition + plans + XXT ----
  std::vector<double> t_tune, t_mesh, t_plans, t_total;
  std::unique_ptr<Mesh> mesh;
  std::unique_ptr<ClusterSim> sim;
  Plans plans4;
  for (int rep = 0; rep < 3; ++rep) {
    const Tracer::Scope setup(tr, "setup");
    detail::mxm_autotune_reset_for_testing();
    Timer t;
    {
      const Tracer::Scope s(tr, "setup.autotune");
      mxm_autotune_init();
    }
    t_tune.push_back(t.seconds());
    t.reset();
    {
      const Tracer::Scope s(tr, "setup.mesh");
      mesh = std::make_unique<Mesh>(bump_mesh(cfg.tiny ? 0 : 1, cfg.tiny ? 4 : 7));
    }
    t_mesh.push_back(t.seconds());
    t.reset();
    {
      const Tracer::Scope s(tr, "setup.solver");
      ClusterOptions copt;
      copt.max_ranks = kRanks;
      copt.schwarz_overlap = 1;
      sim = std::make_unique<ClusterSim>(*mesh, copt);
      plans4 = build_plans(*mesh, *sim, kRanks);
    }
    t_plans.push_back(t.seconds());
    t_total.push_back(t_tune.back() + t_mesh.back() + t_plans.back());
  }
  r.metrics["setup_s"] = median(t_total);
  const GhostExchange& gx = *sim->ghost_exchange();
  const SchwarzLocalSolver slocal(*mesh, gx.ng1(), gx.nlayers());
  const Plans plans1 = build_plans(*mesh, *sim, 1);
  r.meta["nelem"] = mesh->nelem;
  r.meta["order"] = mesh->order;
  r.meta["ranks"] = kRanks;
  r.meta["coarse_n"] = plans4.xxt.n;

  std::mt19937_64 rng(cfg.seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Inputs in;
  in.u.resize(plans4.gs.nglobal);
  in.p.resize(static_cast<std::size_t>(mesh->nelem) *
              plans4.ghost->npress_per_elem());
  in.b.resize(static_cast<std::size_t>(plans4.xxt.n));
  for (auto* v : {&in.u, &in.p, &in.b})
    for (double& x : *v) x = dist(rng);

  // ---- the two legs ----
  const std::size_t min4 = cfg.tiny ? 10 : 1000, min1 = cfg.tiny ? 5 : 50;
  Leg leg4, leg1;
  {
    const Tracer::Scope s(tr, "mp.session_p4");
    leg4 = run_leg(*mesh, gx, slocal, plans4, in, 0.8 * cfg.seconds, min4,
                   s.id(), tr);
  }
  {
    const Tracer::Scope s(tr, "mp.session_p1");
    leg1 = run_leg(*mesh, gx, slocal, plans1, in, 0.2 * cfg.seconds, min1,
                   -1, tr);
  }
  r.attempted = static_cast<std::int64_t>(leg4.iter_wall.size() +
                                          leg1.iter_wall.size());
  r.check(leg4.ok, "P=4 rank session: " + leg4.err);
  r.check(leg1.ok, "P=1 rank session: " + leg1.err);
  if (!leg4.ok || !leg1.ok) {
    r.failed = std::max<std::int64_t>(r.attempted, 1);
    r.attempted = r.failed;
    for (const auto& d : kEndToEnd) r.metrics[d.name] = 0.0;
    return;
  }

  double wall_sum = 0.0;
  for (double x : leg4.iter_wall) wall_sum += x;
  const double n4 = static_cast<double>(leg4.iter_wall.size());
  r.metrics["op_s_p50"] = median(leg4.iter_wall);
  r.metrics["op_s_p90"] = quantile(leg4.iter_wall, 0.9);
  r.metrics["ops_per_s"] = n4 / wall_sum;
  r.metrics["rss_mb"] = peak_rss_mb();
  r.meta["iterations_p4"] = static_cast<std::int64_t>(leg4.iter_wall.size());
  r.meta["iterations_p1"] = static_cast<std::int64_t>(leg1.iter_wall.size());

  // ---- correctness: bitwise against the single-process references ----
  set_threads(thread_budget());
  const bool ok4 = matches(leg4, references(*mesh, gx, slocal, plans4, in, false));
  const bool ok1 = matches(leg1, references(*mesh, gx, slocal, plans1, in, false));
  r.check(ok4, "P=4 results differ from the single-process references");
  r.check(ok1, "P=1 results differ from the single-process references");
  if (!ok4 || !ok1) r.failed = r.attempted;
  if (cfg.tiny)
    r.check(!matches(leg4, references(*mesh, gx, slocal, plans4, in, true)),
            "control: bitwise check accepts a changed input");

  if (tr.on()) {
    // Shares of the iteration wall: the slowest rank's phase totals.
    r.metrics["mp.compute_frac"] = leg4.phase[static_cast<int>(Phase::Compute)] / wall_sum;
    r.metrics["mp.gs_frac"] = leg4.phase[static_cast<int>(Phase::Gs)] / wall_sum;
    r.metrics["mp.allreduce_frac"] = leg4.phase[static_cast<int>(Phase::Allreduce)] / wall_sum;
    r.metrics["mp.coarse_frac"] = leg4.phase[static_cast<int>(Phase::Coarse)] / wall_sum;
    r.metrics["mp.exchange_wait_frac"] = leg4.exchange / wall_sum;
    const auto [words, msgs] = channel_traffic(plans4, gx.nlayers());
    r.metrics["mp.words_per_iter"] = words;
    r.metrics["mp.msgs_per_iter"] = msgs;
    r.metrics["mp.scaling_eff"] =
        median(leg1.iter_wall) / (kRanks * median(leg4.iter_wall));
    r.metrics["trace_overhead"] = median(leg4.traced) / median(leg4.untraced) - 1.0;
    r.metrics["setup.autotune_s"] = median(t_tune);
    r.metrics["setup.mesh_s"] = median(t_mesh);
    r.metrics["setup.solver_s"] = median(t_plans);

    // Kernel probes on this workload's mesh, through a solver with the
    // bump channel's options.
    const Space space(*mesh);
    const NavierStokes ns(space, kBumpDirichlet, bump_options());
    probe_host(thread_budget(), cfg.tiny, r, tr);
    probe_kernels(ns, kBumpDirichlet, cfg.seed, thread_budget(), r, tr);
  }
}

}  // namespace tsem::bench
