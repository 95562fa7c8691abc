// Shared state of one benchmark run: the calibrator, the timed series,
// the failure ledger and the traced run's per-layer values.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "calib.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// A timed quantity. Each sample is the sum of one or more timed parts
/// (refactor sums the three systems of a step); each part is normalized
/// by the calibration slices bracketing it.
class Series {
 public:
  struct Part {
    double raw_ms;
    double t0;
    double t1;
  };
  void begin() { samples_.emplace_back(); }
  void part(double t0, double t1) { part(t1 - t0, t0, t1); }
  void part(double raw_ms, double t0, double t1) {
    if (samples_.empty()) begin();
    samples_.back().push_back({raw_ms, t0, t1});
  }
  void add(double t0, double t1) {
    begin();
    part(t0, t1);
  }
  /// Drop samples that do not have exactly `parts` parts (an unfinished
  /// last group).
  void keep_complete(std::size_t parts);

  [[nodiscard]] std::vector<double> raw() const;
  [[nodiscard]] std::vector<double> normalized(const Calibrator& cal) const;
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] const std::vector<std::vector<Part>>& samples() const { return samples_; }

 private:
  std::vector<std::vector<Part>> samples_;
};

class Run {
 public:
  Calibrator cal;
  /// End-to-end timings of untraced [0] and traced [1] units.
  std::map<std::string, Series> e2e_series[2];
  std::map<std::string, Series> layer;   ///< traced non-span timings
  std::map<std::string, std::vector<double>> layer_values;  ///< counts
  std::map<std::string, long long> failures;
  std::map<std::string, std::string> notes;
  Tracer tracer;

  long long attempted = 0;
  long long failed = 0;
  long long lookups_hit = 0;
  long long lookups_miss = 0;
  long long store_loads = 0;
  long long store_attempts = 0;
  long long evictions = 0;

  /// End-to-end series `name` of the current unit kind.
  Series& e2e(const std::string& name) { return e2e_series[traced_ ? 1 : 0][name]; }
  void set_traced(bool traced) { traced_ = traced; }

  /// Record a failed check of the current unit.
  void fail(const std::string& what) {
    ++failures[what];
    unit_failed_ = true;
  }
  void begin_unit() { unit_failed_ = false; }
  void end_unit() {
    ++attempted;
    if (unit_failed_) ++failed;
  }

  /// Time `fn` into series `s`: a new sample, or one more part of the
  /// current sample.
  template <class Fn>
  void time(Series& s, Fn&& fn, bool new_sample = true) {
    cal.maybe_slice();
    const double t0 = now_ms();
    fn();
    const double t1 = now_ms();
    if (new_sample) s.begin();
    s.part(t0, t1);
  }

 private:
  bool unit_failed_ = false;
  bool traced_ = false;
};

/// One workload: repeated set-up, then closed-loop units with one client.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up repetition (timed by the caller). The last one stays
  /// resident for the timed loop.
  virtual void setup(Run& run, int rep, Tracer* tr) = 0;
  /// Release what the last set-up left resident, so that the next
  /// set-up is timed without the previous one's teardown.
  virtual void teardown() = 0;
  /// One unit: a step (refactor) or an op (churn, restart). `tr` is null
  /// on untraced units; traced units drive the layers' public entry
  /// points directly, inside spans.
  virtual void unit(Run& run, int index, Tracer* tr) = 0;
  /// Paper yardstick round (traced run only): the Eigen-like and
  /// CHOLMOD-like factorizations timed back to back with the Sympiler
  /// executor on the workload's own patterns.
  virtual void yardstick(Run& run) = 0;
  /// Remove anything the workload wrote.
  virtual void cleanup() {}
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

}  // namespace perfbench
