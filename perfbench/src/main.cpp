// Facade benchmark of the Sympiler reproduction.
//
//   facade_bench --workload refactor|churn|restart --seed N --seconds S
//                --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// Prints a record line (machine and build context, raw and normalized
// values, sample counts, failures by name) and, as its last line, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run.
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "blas/bundle.h"
#include "json.h"
#include "stats.h"

#ifndef PERFBENCH_KERNEL_ISA
#define PERFBENCH_KERNEL_ISA "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "facade_bench: " << why
            << "\nusage: facade_bench --workload refactor|churn|restart --seed N"
               " --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--work-dir") a.work_dir = v;
      else if (k == "--git-sha") a.git_sha = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                     &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s.substr(s.find_first_not_of(' ') == std::string::npos ? 0 : s.find_first_not_of(' '));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Where each end-to-end metric comes from.
struct E2e {
  const char* name;
  const char* series;
  bool tail;
};
constexpr E2e kE2e[] = {
    {"factor_ms_p50", "factor", false},
    {"factor_ms_tail", "factor", true},
    {"first_factor_ms_p50", "first_factor", false},
    {"first_factor_ms_tail", "first_factor", true},
    {"solve_ms_p50", "solve", false},
    {"solve_ms_tail", "solve", true},
    {"batch_solve_ms_p50", "batch_solve", false},
    {"trisolve_ms_p50", "trisolve", false},
};

/// The per-layer metrics of the traced run, with the end-to-end metric
/// each should move and the workload where it should not.
struct Layer {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr Layer kLayers[] = {
    {"api.validate_ms", "ms", "factor_ms on churn and refactor"},
    {"core.key_hash_ms", "ms", "churn/factor_ms (smallest share on refactor)"},
    {"core.cache_lookup_us", "us", "churn/factor_ms"},
    {"core.cache_hit_ratio", "ratio", "churn/factor_ms"},
    {"core.cache_evictions", "count", "churn/first_factor_ms (misses)"},
    {"core.plan_ms", "ms", "first_factor_ms on churn and refactor, refactor/setup_s; control: refactor factor/solve, restart/first_factor_ms"},
    {"core.plan_phase.transpose_ms", "ms", "as core.plan_ms"},
    {"core.plan_phase.etree_ms", "ms", "as core.plan_ms"},
    {"core.plan_phase.counts_ms", "ms", "as core.plan_ms"},
    {"core.plan_phase.pattern_ms", "ms", "as core.plan_ms"},
    {"core.plan_phase.assemble_ms", "ms", "as core.plan_ms"},
    {"core.store_load_ms", "ms", "restart/first_factor_ms; control: churn, refactor (store off)"},
    {"core.store_bytes", "bytes", "restart/first_factor_ms"},
    {"core.store_loaded_ratio", "ratio", "restart/first_factor_ms"},
    {"verify.verify_ms", "ms", "restart/first_factor_ms; control: churn, refactor (verify off)"},
    {"verify.checks", "count", "restart/first_factor_ms"},
    {"core.store_save_ms", "ms", "restart/setup_s"},
    {"core.executor_build_ms", "ms", "churn/factor_ms"},
    {"core.factor_numeric_ms.supernodal", "ms", "refactor/factor_ms"},
    {"core.factor_numeric_ms.simplicial", "ms", "refactor/factor_ms"},
    {"core.factor_gflops.supernodal", "GF/s", "refactor/factor_ms"},
    {"core.factor_gflops.simplicial", "GF/s", "refactor/factor_ms"},
    {"core.solve_numeric_ms", "ms", "solve_ms on refactor and churn"},
    {"core.batch_solve_numeric_ms", "ms", "refactor/batch_solve_ms_p50"},
    {"core.trisolve_numeric_ms", "ms", "refactor/trisolve_ms_p50"},
    {"core.trisolve_flops", "count", "refactor/trisolve_ms_p50"},
    {"core.plan_bytes", "bytes", "peak_rss_mb"},
    {"core.workspace_bytes", "bytes", "peak_rss_mb"},
    {"solvers.eigen_like_factor_ms", "ms", "none (paper Fig. 7 yardstick)"},
    {"solvers.cholmod_like_factor_ms", "ms", "none (paper Fig. 7 yardstick)"},
    {"paper.speedup_vs_eigen_like", "x", "none (paper Fig. 7 yardstick)"},
    {"paper.speedup_vs_cholmod_like", "x", "none (paper Fig. 7 yardstick)"},
    {"bench.calib_ms", "ms", "none (describes the run)"},
    {"bench.speed_drift", "ratio", "none (describes the run)"},
    {"bench.trace_overhead_pct", "%", "none (traced minus untraced end-to-end)"},
};

/// Span name -> per-layer metric fed by the span's self time.
constexpr std::pair<const char*, const char*> kSpanMetric[] = {
    {"api.validate", "api.validate_ms"},
    {"core.key_hash", "core.key_hash_ms"},
    {"core.cache_lookup", "core.cache_lookup_us"},
    {"core.plan", "core.plan_ms"},
    {"core.store_load", "core.store_load_ms"},
    {"verify.verify", "verify.verify_ms"},
    {"core.store_save", "core.store_save_ms"},
    {"core.executor_build", "core.executor_build_ms"},
    {"core.factor_numeric.supernodal", "core.factor_numeric_ms.supernodal"},
    {"core.factor_numeric.simplicial", "core.factor_numeric_ms.simplicial"},
    {"core.solve_numeric", "core.solve_numeric_ms"},
    {"core.batch_solve_numeric", "core.batch_solve_numeric_ms"},
    {"core.trisolve_numeric", "core.trisolve_numeric_ms"},
};

/// Rolling median of the slice durations (window 9): max/min of it is the
/// run's speed drift, robust to a single interrupted slice.
double speed_drift(const std::vector<double>& ms) {
  constexpr std::size_t w = 9;
  if (ms.size() < w) return 1.0;
  double lo = 1e300, hi = 0.0;
  for (std::size_t i = 0; i + w <= ms.size(); ++i) {
    const double m = median({ms.begin() + static_cast<std::ptrdiff_t>(i),
                             ms.begin() + static_cast<std::ptrdiff_t>(i + w)});
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  return hi / lo;
}

struct Value {
  double value = 0.0;
  double raw = 0.0;
  std::size_t samples = 0;
  double percentile = 50.0;
  std::string note;
};

int run_main(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  auto workload = make_workload(args.workload, args.seed, args.work_dir);
  if (!workload) usage("unknown workload " + args.workload);

  Run run;
  // ---- set-up, repeated; the median is reported.
  std::vector<double> setup_t0, setup_t1;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Untimed: release what the previous set-up left resident.
    if (rep > 0) workload->teardown();
    // Set-up spans (store saves) are grouped per repetition, below op 0.
    run.tracer.set_op(-1 - rep);
    run.cal.slice();
    const double t0 = now_ms();
    workload->setup(run, rep, args.trace ? &run.tracer : nullptr);
    const double t1 = now_ms();
    run.cal.slice();
    setup_t0.push_back(t0);
    setup_t1.push_back(t1);
  }

  // ---- timed loop: closed loop, one client.
  int units = 0;
  const double loop_start = now_ms();
  int yard_rounds = 0;
  for (int i = 0; now_ms() - loop_start < args.seconds * 1e3; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    run.set_traced(traced);
    run.tracer.set_op(i + 1);
    run.begin_unit();
    try {
      Scope u(traced ? &run.tracer : nullptr, "unit");
      workload->unit(run, i, traced ? &run.tracer : nullptr);
    } catch (const std::exception& e) {
      run.fail(std::string("exception: ") + e.what());
    }
    run.end_unit();
    ++units;
    if (traced && (i / 2) % 4 == 0) {
      run.set_traced(false);
      workload->yardstick(run);
      ++yard_rounds;
    }
  }
  run.cal.slice();
  for (int k = 0; k < Calibrator::kBracketPerSide; ++k) run.cal.slice();
  workload->cleanup();

  const Calibrator& cal = run.cal;
  std::map<std::string, Value> e2e;
  {
    std::vector<double> raw, norm;
    for (std::size_t r = 0; r < setup_t0.size(); ++r) {
      raw.push_back((setup_t1[r] - setup_t0[r]) / 1e3);
      norm.push_back(raw.back() * cal.scale(setup_t0[r], setup_t1[r]));
    }
    e2e["setup_s"] = {median(norm), median(raw), norm.size(), 50.0, ""};
  }
  e2e["peak_rss_mb"] = {peak_rss_mb(), peak_rss_mb(), 1, 50.0, "ru_maxrss"};
  // Refactor sums its rotating cold first factors over the three systems.
  if (args.workload == "refactor")
    for (auto& m : run.e2e_series) m["first_factor"].keep_complete(3);
  auto& untraced = run.e2e_series[0];
  for (const E2e& m : kE2e) {
    const Series& s = untraced[m.series];
    const std::vector<double> norm = s.normalized(cal), raw = s.raw();
    Value v;
    v.samples = norm.size();
    if (m.tail) {
      const Tail tn = tail(norm), tr = tail(raw);
      v.value = tn.value;
      v.raw = tr.value;
      v.percentile = tn.percentile;
      if (!tn.resolved) v.note = "fewer than 11 samples: maximum reported";
    } else {
      v.value = median(norm);
      v.raw = median(raw);
    }
    e2e[m.name] = v;
  }

  // ---- per-layer values (traced run).
  std::map<std::string, Value> layers;
  if (args.trace) {
    const std::vector<Span>& spans = run.tracer.spans();
    const std::vector<double> self = self_times(spans);
    std::map<std::string, std::map<int, double>> per_op;
    for (std::size_t i = 0; i < spans.size(); ++i)
      per_op[spans[i].name][spans[i].op] +=
          self[i] * cal.scale(spans[i].start_ms, spans[i].end_ms);
    for (const auto& [span, metric] : kSpanMetric) {
      std::vector<double> v;
      for (const auto& [op, ms] : per_op[span]) v.push_back(ms);
      const double k = std::strcmp(metric, "core.cache_lookup_us") == 0 ? 1e3 : 1.0;
      layers[metric] = {median(v) * k, 0.0, v.size(), 50.0,
                        v.empty() ? "layer not exercised by this workload" : ""};
    }
    for (const char* path : {"supernodal", "simplicial"}) {
      const Series& s = run.layer[std::string("core.factor_gflops.") + path];
      const std::vector<double> ms = s.normalized(cal);
      const std::vector<double>& flops = run.layer_values[std::string("flops.") + path];
      std::vector<double> gf;
      for (std::size_t i = 0; i < ms.size() && i < flops.size(); ++i)
        gf.push_back(flops[i] / (ms[i] * 1e6));
      layers[std::string("core.factor_gflops.") + path] = {
          median(gf), 0.0, gf.size(), 50.0, gf.empty() ? "no factorization on this path" : ""};
    }
    for (const char* phase : {"transpose", "etree", "counts", "pattern", "assemble"}) {
      const std::string name = std::string("core.plan_phase.") + phase + "_ms";
      const std::vector<double> v = run.layer[name].normalized(cal);
      layers[name] = {median(v), median(run.layer[name].raw()), v.size(), 50.0,
                      v.empty() ? "no cold plan in this workload" : ""};
    }
    for (const char* name : {"solvers.eigen_like_factor_ms", "solvers.cholmod_like_factor_ms"}) {
      const std::vector<double> v = run.layer[name].normalized(cal);
      layers[name] = {median(v), median(run.layer[name].raw()), v.size(), 50.0, ""};
    }
    for (const char* name : {"paper.speedup_vs_eigen_like", "paper.speedup_vs_cholmod_like",
                             "core.store_bytes", "verify.checks", "core.trisolve_flops",
                             "core.plan_bytes", "core.workspace_bytes"}) {
      const std::vector<double>& v = run.layer_values[name];
      layers[name] = {median(v), median(v), v.size(), 50.0,
                      v.empty() ? "layer not exercised by this workload" : ""};
    }
    const long long lookups = run.lookups_hit + run.lookups_miss;
    layers["core.cache_hit_ratio"] = {
        lookups ? static_cast<double>(run.lookups_hit) / static_cast<double>(lookups) : 0.0,
        0.0, static_cast<std::size_t>(lookups), 50.0,
        lookups ? "" : "no plan-cache lookups"};
    layers["core.cache_evictions"] = {static_cast<double>(run.evictions), 0.0, 1, 50.0, ""};
    layers["core.store_loaded_ratio"] = {
        run.store_attempts
            ? static_cast<double>(run.store_loads) / static_cast<double>(run.store_attempts)
            : 0.0,
        0.0, static_cast<std::size_t>(run.store_attempts), 50.0,
        run.store_attempts ? "" : "plan store off in this workload"};
    layers["bench.calib_ms"] = {median(cal.durations()), median(cal.durations()),
                                cal.durations().size(), 50.0, "raw slice time"};
    layers["bench.speed_drift"] = {speed_drift(cal.durations()), 0.0,
                                   cal.durations().size(), 50.0, "max/min rolling-median slice"};
    // Traced minus untraced end-to-end, over the timed ops of both kinds.
    double traced_sum = 0.0, untraced_sum = 0.0;
    for (const char* s : {"factor", "first_factor", "solve", "batch_solve", "trisolve"}) {
      const auto t = run.e2e_series[1].find(s);
      const auto u = run.e2e_series[0].find(s);
      if (t == run.e2e_series[1].end() || u == run.e2e_series[0].end()) continue;
      if (t->second.size() == 0 || u->second.size() == 0) continue;
      traced_sum += median(t->second.normalized(cal));
      untraced_sum += median(u->second.normalized(cal));
    }
    layers["bench.trace_overhead_pct"] = {
        untraced_sum > 0.0 ? 100.0 * (traced_sum - untraced_sum) / untraced_sum : 0.0, 0.0,
        static_cast<std::size_t>(units), 50.0, "alternating traced and untraced units"};
  }

  // ---- record.
  Json rec;
  rec.open('{');
  rec.kv("workload", args.workload).kv("seed", static_cast<long long>(args.seed));
  rec.kv("seconds", args.seconds).kv("trace", args.trace);
  rec.key("context").open('{');
  rec.kv("cpu_model", cpu_model());
  rec.kv("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
  rec.kv("l2_bytes", static_cast<long long>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  rec.kv("l3_bytes", static_cast<long long>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  rec.kv("kernel_isa", PERFBENCH_KERNEL_ISA);
  rec.kv("bundle_tier", sympiler::blas::to_string(sympiler::blas::bundle_isa_active()));
  rec.kv("build_type", PERFBENCH_BUILD_TYPE).kv("compiler", PERFBENCH_COMPILER);
  rec.kv("git_sha", args.git_sha);
  rec.kv("openmp", sympiler::core::Planner::parallel_enabled()).kv("jit", "off");
  rec.close('}');
  rec.key("calibration").open('{');
  rec.kv("ref_slice_ms", Calibrator::kRefSliceMs);
  rec.kv("slices", cal.durations().size());
  rec.kv("raw_median_ms", median(cal.durations()));
  rec.kv("speed_drift", speed_drift(cal.durations()));
  rec.key("parts_median_ms").open('{');
  for (std::size_t k = 0; k < Calibrator::kParts; ++k) {
    std::vector<double> v;
    for (const auto& p : cal.parts()) v.push_back(p[k]);
    rec.kv(Calibrator::kPartNames[k], median(v));
  }
  rec.close('}').close('}');
  auto emit = [&](const char* title, const std::map<std::string, Value>& vals, bool with_moves) {
    rec.key(title).open('{');
    for (const auto& [name, v] : vals) {
      rec.key(name).open('{');
      rec.kv("value", v.value).kv("raw", v.raw).kv("samples", v.samples);
      rec.kv("percentile", v.percentile);
      if (with_moves)
        for (const Layer& l : kLayers)
          if (name == l.name) rec.kv("moves", l.moves);
      if (!v.note.empty()) rec.kv("note", v.note);
      rec.close('}');
    }
    rec.close('}');
  };
  emit("end_to_end", e2e, false);
  if (args.trace) emit("per_layer", layers, true);
  rec.kv("units", static_cast<std::size_t>(units)).kv("yardstick_rounds", yard_rounds);
  rec.kv("attempted", run.attempted).kv("failed", run.failed);
  rec.key("failures").open('{');
  for (const auto& [what, n] : run.failures) rec.kv(what, n);
  rec.close('}');
  rec.key("notes").open('{');
  for (const auto& [k, v] : run.notes) rec.kv(k, v);
  rec.close('}');
  rec.close('}');
  const std::string stem = args.work_dir + "/record-" + args.workload + "-seed" +
                           std::to_string(args.seed) + (args.trace ? "-trace" : "");
  std::ofstream(stem + ".json") << rec.str() << "\n";
  if (args.trace) {
    Json sp;
    sp.open('[');
    for (const Span& s : run.tracer.spans()) {
      sp.open('{');
      sp.kv("name", s.name).kv("start_ms", s.start_ms).kv("end_ms", s.end_ms);
      sp.kv("parent", s.parent).kv("op", s.op);
      sp.close('}');
    }
    sp.close(']');
    std::ofstream(stem + "-spans.json") << sp.str() << "\n";
  }
  {
    // Every raw sample and slice, so the normalization can be audited
    // (and re-derived) offline.
    Json raw;
    raw.open('{');
    raw.key("slices").open('[');
    for (std::size_t i = 0; i < cal.durations().size(); ++i) {
      raw.open('[').value(cal.starts()[i]);
      for (const double p : cal.parts()[i]) raw.value(p);
      raw.close(']');
    }
    raw.close(']');
    raw.key("setup").open('[');
    for (std::size_t r = 0; r < setup_t0.size(); ++r)
      raw.open('[').value(setup_t0[r]).value(setup_t1[r]).close(']');
    raw.close(']');
    for (const auto& [name, series] : run.e2e_series[0]) {
      raw.key(name).open('[');
      for (const auto& sample : series.samples()) {
        raw.open('[');
        for (const Series::Part& p : sample) raw.open('[').value(p.raw_ms).value(p.t0).value(p.t1).close(']');
        raw.close(']');
      }
      raw.close(']');
    }
    raw.close('}');
    std::ofstream(stem + "-samples.json") << raw.str() << "\n";
  }
  std::cout << "record " << rec.str() << "\n";

  // ---- result line.
  Json res;
  res.open('{');
  res.kv("correct", run.failed == 0).kv("attempted", run.attempted).kv("failed", run.failed);
  res.key("metrics").open('{');
  auto metric = [&](const std::string& name, double value, const char* unit) {
    res.key(name).open('{').kv("value", value).kv("unit", unit).close('}');
  };
  if (args.trace) {
    for (const Layer& l : kLayers) metric(l.name, layers[l.name].value, l.unit);
  } else {
    metric("setup_s", e2e["setup_s"].value, "s");
    metric("peak_rss_mb", e2e["peak_rss_mb"].value, "MB");
    for (const E2e& m : kE2e) metric(m.name, e2e[m.name].value, "ms");
  }
  res.close('}').close('}');
  std::cout << res.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run_main(args);
  } catch (const std::exception& e) {
    std::cerr << "facade_bench: " << e.what() << "\n";
    return 1;
  }
}
