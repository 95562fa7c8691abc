// The three workloads. Untraced units go through the public facade
// (api::Solver, api::TriangularSolver); traced units replay the same op
// through the public entry points of the layers beneath it, one span per
// call, so per-layer self time can be read off the spans.
#include <unistd.h>

#include <filesystem>
#include <span>
#include <stdexcept>
#include <system_error>

#include "bench.h"
#include "core/cholesky_executor.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "oracle.h"
#include "solvers/simplicial.h"
#include "solvers/supernodal.h"
#include "verify/verify.h"

namespace perfbench {

namespace {

namespace api = sympiler::api;
namespace core = sympiler::core;
namespace fs = std::filesystem;
using PlanPtr = std::shared_ptr<const core::CholeskyPlan>;

/// Right-hand sides per solve_batch block.
constexpr index_t kBatch = 4;

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t unit, std::uint64_t k) {
  return derive(seed, 1000 + unit * 16 + k);
}

const char* numeric_span(const core::CholeskyPlan& plan) {
  return plan.path == core::ExecutionPath::Simplicial
             ? "core.factor_numeric.simplicial"
             : "core.factor_numeric.supernodal";
}

/// Record a traced non-span timing (normalized like every span).
void layer_time(Run& run, const std::string& name, double raw_ms, double t0,
                double t1) {
  Series& s = run.layer[name];
  s.begin();
  s.part(raw_ms, t0, t1);
}

void check_sym(Run& run, const CscMatrix& a, std::span<const double> x,
               std::span<const double> b, const char* what) {
  if (!(sym_residual(a, x, b) <= kResidualBound)) run.fail(what);
}

void check_lower(Run& run, const CscMatrix& l, std::span<const double> x,
                 std::span<const double> b) {
  if (!(lower_residual(l, x, b) <= kResidualBound)) run.fail("trisolve_residual");
}

/// Numeric factorization on a plan's executor, inside its span, with
/// the flop count kept for the traced GF/s figure.
void traced_factorize(Run& run, Tracer* tr, core::CholeskyExecutor& ex,
                      const CscMatrix& a) {
  const char* name = numeric_span(ex.plan());
  const double t0 = now_ms();
  {
    Scope s(tr, name);
    ex.factorize(a);
  }
  const double t1 = now_ms();
  const std::string path = ex.plan().path == core::ExecutionPath::Simplicial
                               ? "simplicial"
                               : "supernodal";
  layer_time(run, "core.factor_gflops." + path, t1 - t0, t0, t1);
  run.layer_values["flops." + path].push_back(ex.flops());
}

/// What api::Solver::factor does for a Solver meeting a pattern for the
/// first time: validate, hash, look up, on a miss load from the store
/// (re-verified) or plan, insert, build the executor, factor.
std::unique_ptr<core::CholeskyExecutor> traced_first_factor(
    Run& run, Tracer* tr, const api::SolverConfig& cfg,
    api::SymbolicContext& ctx, const CscMatrix& a, bool* hit) {
  Scope op(tr, "api.factor");
  {
    Scope s(tr, "api.validate");
    if (cfg.options.validate_input)
      api::validate_factor_input(a, cfg.options.scan_values);
  }
  const core::Planner planner(cfg.planner_config());
  core::PatternKey key;
  {
    Scope s(tr, "core.key_hash");
    key = planner.cholesky_key(a);
  }
  core::CholeskyCache::Lookup found;
  {
    Scope s(tr, "core.cache_lookup");
    found = ctx.cholesky_cache().find(key);
  }
  *hit = found.hit;
  PlanPtr plan = found.plan;
  if (!found.hit) {
    ++run.lookups_miss;
    const std::string& dir = cfg.options.plan_store_dir;
    if (!dir.empty()) {
      ++run.store_attempts;
      core::CholeskyPlan from_disk;
      bool ok = false;
      {
        Scope s(tr, "core.store_load");
        const auto store = core::PlanStore::open(dir);
        ok = store->load(key, &from_disk).ok();
        std::error_code ec;
        const auto bytes = fs::file_size(store->path_for(key, true), ec);
        if (!ec) run.layer_values["core.store_bytes"].push_back(static_cast<double>(bytes));
      }
      if (ok) {
        Scope s(tr, "verify.verify");
        const sympiler::verify::Report report = sympiler::verify::verify_plan(from_disk);
        run.layer_values["verify.checks"].push_back(report.checks);
        ok = report.ok();
      }
      if (ok) {
        ++run.store_loads;
        plan = std::make_shared<const core::CholeskyPlan>(std::move(from_disk));
      } else {
        run.fail("store_load_rejected");
      }
    }
    if (plan == nullptr) {
      const double t0 = now_ms();
      {
        Scope s(tr, "core.plan");
        plan = std::make_shared<const core::CholeskyPlan>(planner.plan_cholesky(a));
      }
      const double t1 = now_ms();
      const core::PlanPhaseTimes& ph = plan->evidence.phases;
      const std::pair<const char*, double> phases[] = {
          {"transpose", ph.transpose}, {"etree", ph.etree}, {"counts", ph.counts},
          {"pattern", ph.pattern},     {"assemble", ph.assemble}};
      for (const auto& [name, sec] : phases)
        layer_time(run, std::string("core.plan_phase.") + name + "_ms", sec * 1e3, t0, t1);
    }
    Scope s(tr, "core.cache_insert");
    plan = ctx.cholesky_cache().insert(key, plan);
  } else {
    ++run.lookups_hit;
  }
  std::unique_ptr<core::CholeskyExecutor> ex;
  {
    Scope s(tr, "core.executor_build");
    ex = std::make_unique<core::CholeskyExecutor>(plan);
  }
  traced_factorize(run, tr, *ex, a);
  return ex;
}

/// What api::Solver::factor does for a Solver whose standing plan has
/// the pattern: validate, hash, compare, factor.
void traced_refactor(Run& run, Tracer* tr, const api::SolverConfig& cfg,
                     core::CholeskyExecutor& ex, const CscMatrix& a) {
  Scope op(tr, "api.factor");
  {
    Scope s(tr, "api.validate");
    if (cfg.options.validate_input)
      api::validate_factor_input(a, cfg.options.scan_values);
  }
  const core::Planner planner(cfg.planner_config());
  core::PatternKey key;
  {
    Scope s(tr, "core.key_hash");
    key = planner.cholesky_key(a);
  }
  if (!(key == ex.plan().key)) run.fail("refactor_key_changed");
  traced_factorize(run, tr, ex, a);
}

void record_plan_size(const core::CholeskyPlan& plan, double& plan_bytes,
                      double& ws_bytes) {
  plan_bytes += static_cast<double>(plan.bytes());
  ws_bytes += static_cast<double>(plan.workspace.bytes());
}

/// The solve-side ops every unit runs on a factored system: solve,
/// solve_batch and the sparse-RHS triangular solve on L. `new_sample`
/// selects whether each starts a new sample or adds to the current one.
struct SolveTargets {
  const api::Solver* solver = nullptr;         // untraced
  const core::CholeskyExecutor* ex = nullptr;  // traced
  const api::TriangularSolver* tri = nullptr;  // untraced
  const core::TriSolveExecutor* tex = nullptr;  // traced
};

void run_solves(Run& run, Tracer* tr, const SolveTargets& t, const CscMatrix& a,
                const CscMatrix& l, std::span<const index_t> beta,
                std::uint64_t seed, bool new_sample) {
  const auto n = static_cast<std::size_t>(a.cols());
  std::vector<double> b(n), x(n);
  fill_rhs(b, {}, derive(seed, 1));
  x = b;
  run.time(run.e2e("solve"), [&] {
    if (tr == nullptr) return t.solver->solve(x);
    Scope op(tr, "api.solve");
    Scope s(tr, "core.solve_numeric");
    t.ex->solve(x);
  }, new_sample);
  check_sym(run, a, x, b, "solve_residual");

  std::vector<double> bb(n * kBatch), xb;
  fill_rhs(bb, {}, derive(seed, 2));
  xb = bb;
  run.time(run.e2e("batch_solve"), [&] {
    if (tr == nullptr) return t.solver->solve_batch(xb, kBatch);
    Scope op(tr, "api.solve_batch");
    Scope s(tr, "core.batch_solve_numeric");
    t.ex->solve_batch(xb, kBatch);
  }, new_sample);
  for (std::size_t c = 0; c < static_cast<std::size_t>(kBatch); ++c)
    check_sym(run, a, std::span<const double>(xb).subspan(c * n, n),
              std::span<const double>(bb).subspan(c * n, n), "batch_residual");

  fill_rhs(b, beta, derive(seed, 3));
  x = b;
  run.time(run.e2e("trisolve"), [&] {
    if (tr == nullptr) return t.tri->solve(x);
    Scope op(tr, "api.trisolve");
    Scope s(tr, "core.trisolve_numeric");
    t.tex->solve(x);
  }, new_sample);
  if (tr != nullptr) run.layer_values["core.trisolve_flops"].push_back(t.tex->flops());
  check_lower(run, l, x, b);
}

/// Back-to-back factorizations of one pattern by the two library
/// baselines and the Sympiler executor.
struct Yardstick {
  std::unique_ptr<sympiler::solvers::SimplicialCholesky> eigen_like;
  std::unique_ptr<sympiler::solvers::SupernodalCholesky> cholmod_like;
  std::unique_ptr<core::CholeskyExecutor> sympiler;
};

void yardstick_round(Run& run, std::vector<Yardstick>& ys,
                     const std::vector<const CscMatrix*>& mats) {
  if (ys.empty()) {
    for (const CscMatrix* a : mats) {
      Yardstick y;
      y.eigen_like = std::make_unique<sympiler::solvers::SimplicialCholesky>(*a);
      y.cholmod_like = std::make_unique<sympiler::solvers::SupernodalCholesky>(*a);
      y.sympiler = std::make_unique<core::CholeskyExecutor>(*a);
      ys.push_back(std::move(y));
    }
  }
  Series& e = run.layer["solvers.eigen_like_factor_ms"];
  Series& c = run.layer["solvers.cholmod_like_factor_ms"];
  e.begin();
  c.begin();
  double te = 0.0, tc = 0.0, ts = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const CscMatrix& a = *mats[i];
    run.cal.maybe_slice();
    const double t0 = now_ms();
    ys[i].eigen_like->factorize(a);
    const double t1 = now_ms();
    ys[i].cholmod_like->factorize(a);
    const double t2 = now_ms();
    ys[i].sympiler->factorize(a);
    const double t3 = now_ms();
    e.part(t0, t1);
    c.part(t1, t2);
    te += t1 - t0;
    tc += t2 - t1;
    ts += t3 - t2;
  }
  // Back to back, so the ratio cancels the drift without normalization.
  run.layer_values["paper.speedup_vs_eigen_like"].push_back(te / ts);
  run.layer_values["paper.speedup_vs_cholmod_like"].push_back(tc / ts);
}

// ------------------------------------------------------------ refactor

/// Transient / Newton loop over three resident fixed-pattern systems.
class Refactor final : public Workload {
 public:
  explicit Refactor(std::uint64_t seed) : seed_(seed), sys_(refactor_systems(seed)) {}

  void setup(Run&, int, Tracer*) override {
    ctx_ = std::make_shared<api::SymbolicContext>();
    for (std::size_t k = 0; k < kSystems; ++k) {
      Resident& r = res_[k];
      r.a = sys_[k].a;
      r.solver = std::make_unique<api::Solver>(cfg_, ctx_);
      r.solver->factor(r.a);
      r.l = r.solver->factor_csc();
      r.tri = std::make_unique<api::TriangularSolver>(r.l, sys_[k].beta, cfg_, ctx_);
    }
  }

  void teardown() override {
    for (Resident& r : res_) r = Resident{};
    ctx_.reset();
  }

  void unit(Run& run, int step, Tracer* tr) override {
    if (tr != nullptr && res_[0].ex == nullptr) {
      for (Resident& r : res_) {
        r.ex = std::make_unique<core::CholeskyExecutor>(r.solver->plan());
        r.ex->factorize(r.a);
        r.tex = std::make_unique<core::TriSolveExecutor>(r.tri->plan(), r.l);
      }
    }
    const auto u = static_cast<std::uint64_t>(step);
    run.e2e("factor").begin();
    for (const char* s : {"solve", "batch_solve", "trisolve"}) run.e2e(s).begin();
    double plan_bytes = 0.0, ws_bytes = 0.0;
    for (std::size_t k = 0; k < kSystems; ++k) {
      Resident& r = res_[k];
      perturb_values(sys_[k].a, op_seed(seed_, u, k), r.a);
      run.time(run.e2e("factor"), [&] {
        if (tr == nullptr) return r.solver->factor(r.a);
        traced_refactor(run, tr, cfg_, *r.ex, r.a);
      }, false);
      if (tr == nullptr && !r.solver->symbolic_cached()) run.fail("refactor_replanned");
      if (tr != nullptr) record_plan_size(r.ex->plan(), plan_bytes, ws_bytes);
      run_solves(run, tr, {r.solver.get(), r.ex.get(), r.tri.get(), r.tex.get()}, r.a,
                 r.l, sys_[k].beta, op_seed(seed_, u, 4 + k), false);
    }
    // One cold first factor per step, rotating over the systems: a fresh
    // context (a restarted process with no store) plans from scratch.
    const std::size_t k = static_cast<std::size_t>(step) % kSystems;
    if (k == 0) run.e2e("first_factor").begin();
    const CscMatrix& a = res_[k].a;
    auto ctx = std::make_shared<api::SymbolicContext>();
    api::Solver cold(cfg_, ctx);
    std::unique_ptr<core::CholeskyExecutor> ex;
    bool hit = false;
    run.time(run.e2e("first_factor"), [&] {
      if (tr == nullptr) return cold.factor(a);
      ex = traced_first_factor(run, tr, cfg_, *ctx, a, &hit);
    }, false);
    if (tr != nullptr) record_plan_size(ex->plan(), plan_bytes, ws_bytes);
    if (tr == nullptr ? cold.symbolic_cached() : hit) run.fail("cold_factor_hit");
    std::vector<double> b(static_cast<std::size_t>(a.cols())), x;
    fill_rhs(b, {}, op_seed(seed_, u, 8));
    x = b;
    if (tr == nullptr) cold.solve(x);
    else ex->solve(x);
    check_sym(run, a, x, b, "first_factor_residual");
    if (tr != nullptr) {
      run.layer_values["core.plan_bytes"].push_back(plan_bytes);
      run.layer_values["core.workspace_bytes"].push_back(ws_bytes);
    }
  }

  void yardstick(Run& run) override {
    std::vector<const CscMatrix*> mats;
    for (const Problem& p : sys_) mats.push_back(&p.a);
    yardstick_round(run, ys_, mats);
  }

  static constexpr std::size_t kSystems = 3;

 private:
  struct Resident {
    CscMatrix a;
    CscMatrix l;
    std::unique_ptr<api::Solver> solver;
    std::unique_ptr<api::TriangularSolver> tri;
    std::unique_ptr<core::CholeskyExecutor> ex;
    std::unique_ptr<core::TriSolveExecutor> tex;
  };
  std::uint64_t seed_;
  std::vector<Problem> sys_;
  api::SolverConfig cfg_;
  std::shared_ptr<api::SymbolicContext> ctx_;
  Resident res_[kSystems];
  std::vector<Yardstick> ys_;
};

// --------------------------------------------------------------- churn

/// A stream of small patterns with skewed recurrence through one shared
/// context whose byte budget holds only part of the universe.
class Churn final : public Workload {
 public:
  /// Plan-cache budget of the shared context: about a third of the
  /// universe's plans (~31 MB) fit, so the cold tail keeps missing.
  static constexpr std::size_t kCacheBudget = 12u << 20;
  static constexpr std::size_t kCacheShards = 1;
  /// Hottest patterns planned at set-up (a service warming its cache).
  static constexpr std::size_t kHotSet = 4;

  explicit Churn(std::uint64_t seed)
      : seed_(seed), universe_(churn_universe(seed)), stream_(seed, universe_.size()) {}

  void setup(Run&, int, Tracer*) override {
    ctx_ = std::make_shared<api::SymbolicContext>(kCacheBudget, kCacheShards);
    for (std::size_t p = 0; p < kHotSet; ++p) {
      api::Solver s(cfg_, ctx_);
      s.factor(universe_[p].a);
    }
    evictions0_ = ctx_->cholesky_cache().stats().evictions;
  }

  void teardown() override { ctx_.reset(); }

  void unit(Run& run, int op, Tracer* tr) override {
    const Problem& p = universe_[stream_.next()];
    const auto u = static_cast<std::uint64_t>(op);
    perturb_values(p.a, op_seed(seed_, u, 0), a_);
    api::Solver solver(cfg_, ctx_);
    std::unique_ptr<core::CholeskyExecutor> ex;
    bool hit = false;
    run.cal.maybe_slice();
    const double f0 = now_ms();
    if (tr == nullptr) {
      solver.factor(a_);
      hit = solver.symbolic_cached();
    } else {
      ex = traced_first_factor(run, tr, cfg_, *ctx_, a_, &hit);
    }
    const double f1 = now_ms();
    run.e2e(hit ? "factor" : "first_factor").add(f0, f1);
    CscMatrix l = tr == nullptr ? solver.factor_csc() : ex->factor_csc();
    api::TriangularSolver tri(l, p.beta, cfg_, ctx_);
    std::unique_ptr<core::TriSolveExecutor> tex;
    if (tr != nullptr) {
      tex = std::make_unique<core::TriSolveExecutor>(tri.plan(), l);
      double pb = 0.0, wb = 0.0;
      record_plan_size(ex->plan(), pb, wb);
      run.layer_values["core.plan_bytes"].push_back(pb);
      run.layer_values["core.workspace_bytes"].push_back(wb);
    }
    run_solves(run, tr, {&solver, ex.get(), &tri, tex.get()}, a_, l, p.beta,
               op_seed(seed_, u, 1), true);
    run.evictions = static_cast<long long>(ctx_->cholesky_cache().stats().evictions - evictions0_);
  }

  void yardstick(Run& run) override {
    std::vector<const CscMatrix*> mats;
    for (std::size_t p = 0; p < kHotSet; ++p) mats.push_back(&universe_[p].a);
    yardstick_round(run, ys_, mats);
  }

 private:
  std::uint64_t seed_;
  std::vector<Problem> universe_;
  ZipfStream stream_;
  api::SolverConfig cfg_;
  std::shared_ptr<api::SymbolicContext> ctx_;
  CscMatrix a_;
  std::uint64_t evictions0_ = 0;
  std::vector<Yardstick> ys_;
};

// ------------------------------------------------------------- restart

/// Restarted processes served by the plan store: set-up persists the
/// plans; every op starts from an empty context and loads + re-verifies.
class Restart final : public Workload {
 public:
  Restart(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed), pats_(restart_patterns(seed)),
        root_(fs::path(work_dir) / ("store-" + std::to_string(::getpid()))) {}

  void setup(Run& run, int rep, Tracer* tr) override {
    const fs::path dir = root_ / ("rep" + std::to_string(rep));
    fs::create_directories(dir);
    dir_ = dir.string();
    const auto store = core::PlanStore::open(dir_);
    for (const Problem& p : pats_) {
      auto ctx = std::make_shared<api::SymbolicContext>();
      api::Solver s(cfg_, ctx);
      s.factor(p.a);
      const PlanPtr& plan = s.plan();
      // The facade persists only what this gate accepts; a declined plan
      // would be replanned after a restart, so the workload cannot run.
      const bool persist =
          core::PlanStore::should_persist(plan->bytes(), plan->evidence.build_seconds,
                                          plan->path == core::ExecutionPath::Simplicial);
      run.notes["should_persist." + p.name] =
          std::string(persist ? "yes" : "no") + ", " + std::to_string(plan->bytes()) +
          " bytes, built in " + std::to_string(plan->evidence.build_seconds * 1e3) + " ms";
      if (!persist)
        throw std::runtime_error("plan store declines the plan of " + p.name +
                                 ": a restart would replan it");
      sympiler::Status st;
      {
        Scope sp(tr, "core.store_save");
        st = store->save(*plan);
      }
      if (!st.ok()) throw std::runtime_error("plan store save failed: " + st.to_string());
    }
  }

  void unit(Run& run, int op, Tracer* tr) override {
    // One restarted process: an empty context, one Solver per stored
    // pattern; every timing is the sum over the patterns.
    const auto u = static_cast<std::uint64_t>(op);
    api::SolverConfig cfg = cfg_;
    cfg.options.plan_store_dir = dir_;
    auto ctx = std::make_shared<api::SymbolicContext>();
    for (const char* s : {"first_factor", "factor", "solve", "batch_solve", "trisolve"})
      run.e2e(s).begin();
    double plan_bytes = 0.0, ws_bytes = 0.0;
    for (std::size_t k = 0; k < pats_.size(); ++k) {
      const Problem& p = pats_[k];
      api::Solver solver(cfg, ctx);
      std::unique_ptr<core::CholeskyExecutor> ex;
      bool hit = false;
      perturb_values(p.a, op_seed(seed_, u, k), a_);
      run.time(run.e2e("first_factor"), [&] {
        if (tr == nullptr) return solver.factor(a_);
        ex = traced_first_factor(run, tr, cfg, *ctx, a_, &hit);
      }, false);
      if (tr == nullptr && !solver.report().store_loaded) run.fail("store_not_loaded");
      {
        std::vector<double> b(static_cast<std::size_t>(a_.cols())), x;
        fill_rhs(b, {}, op_seed(seed_, u, 8 + k));
        x = b;
        if (tr == nullptr) solver.solve(x);
        else ex->solve(x);
        check_sym(run, a_, x, b, "first_factor_residual");
      }
      // The restarted process then refactors with new values.
      perturb_values(p.a, op_seed(seed_, u, 16 + k), a_);
      run.time(run.e2e("factor"), [&] {
        if (tr == nullptr) return solver.factor(a_);
        traced_refactor(run, tr, cfg, *ex, a_);
      }, false);
      CscMatrix l = tr == nullptr ? solver.factor_csc() : ex->factor_csc();
      api::TriangularSolver tri(l, p.beta, cfg_, ctx);
      std::unique_ptr<core::TriSolveExecutor> tex;
      if (tr != nullptr) {
        tex = std::make_unique<core::TriSolveExecutor>(tri.plan(), l);
        record_plan_size(ex->plan(), plan_bytes, ws_bytes);
      }
      run_solves(run, tr, {&solver, ex.get(), &tri, tex.get()}, a_, l, p.beta,
                 op_seed(seed_, u, 24 + k), false);
    }
    if (tr != nullptr) {
      run.layer_values["core.plan_bytes"].push_back(plan_bytes);
      run.layer_values["core.workspace_bytes"].push_back(ws_bytes);
    }
  }

  void yardstick(Run& run) override {
    std::vector<const CscMatrix*> mats;
    for (const Problem& p : pats_) mats.push_back(&p.a);
    yardstick_round(run, ys_, mats);
  }

  void teardown() override {
    fs::remove_all(dir_);
    dir_.clear();
  }

  void cleanup() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

 private:
  std::uint64_t seed_;
  std::vector<Problem> pats_;
  fs::path root_;
  std::string dir_;
  api::SolverConfig cfg_;
  CscMatrix a_;
  std::vector<Yardstick> ys_;
};

}  // namespace

void Series::keep_complete(std::size_t parts) {
  std::erase_if(samples_, [&](const auto& s) { return s.size() != parts; });
}

std::vector<double> Series::raw() const {
  std::vector<double> out;
  for (const auto& s : samples_) {
    double sum = 0.0;
    for (const Part& p : s) sum += p.raw_ms;
    out.push_back(sum);
  }
  return out;
}

std::vector<double> Series::normalized(const Calibrator& cal) const {
  std::vector<double> out;
  for (const auto& s : samples_) {
    double sum = 0.0;
    for (const Part& p : s) sum += p.raw_ms * cal.scale(p.t0, p.t1);
    out.push_back(sum);
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "refactor") return std::make_unique<Refactor>(seed);
  if (name == "churn") return std::make_unique<Churn>(seed);
  if (name == "restart") return std::make_unique<Restart>(seed, work_dir);
  return nullptr;
}

}  // namespace perfbench
