// Drift normalization: a benchmark-owned calibration loop that brackets
// every timed sample.
//
// On shared virtual machines the effective speed of a vCPU moves by up
// to ~1.9x within seconds (co-tenants on the sibling hyperthread, shared
// L2/L3 and memory bandwidth) while thread CPU time still equals wall
// time, so raw medians do not repeat between runs. The slowdown is
// specific: L2-bound dense FP work slows as much as the factorizations,
// while L1-resident FP work and L3 random reads barely move. The
// calibration slice is therefore a fixed amount of L2-resident work that
// calls no library code: a dense Cholesky factorization of a 256x256
// matrix (512 KiB; the sqrt/divide/axpy mix of the supernodal kernels)
// and a streaming read of a 1 MiB window. A sample is reported as
//
//   normalized = raw * kRefSliceMs / median(slices bracketing the sample)
//
// i.e. in milliseconds of a machine whose slice takes kRefSliceMs. The
// raw values are kept beside every normalized one so the normalization
// can be audited; perfbench/README.md records the kernels tried.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since an arbitrary epoch.
double now_ms();

/// Durations (ms) of the `per_side` slices that ended at or before `t0`
/// and the `per_side` slices that started at or after `t1`. `start` and
/// `ms` are parallel arrays in time order.
std::vector<double> bracketing_slices(std::span<const double> start,
                                      std::span<const double> ms, double t0,
                                      double t1, int per_side);

/// raw * ref_ms / median(bracket). Returns raw when bracket is empty.
double normalize(double raw, std::span<const double> bracket, double ref_ms);

class Calibrator {
 public:
  /// Slice time of the reference machine state: the fast-state median
  /// slice on a 4-vCPU Xeon (Sapphire Rapids) KVM guest, gcc 12.
  static constexpr double kRefSliceMs = 1.0;
  /// Slices taken on each side of a sample.
  static constexpr int kBracketPerSide = 2;
  /// Wall time of benchmark work between two slices.
  static constexpr double kSliceEveryMs = 20.0;

  static constexpr std::size_t kParts = 2;
  static constexpr std::array<const char*, kParts> kPartNames = {"dense_cholesky",
                                                                 "l2_stream"};

  Calibrator();

  /// Run one slice now and record it.
  double slice();
  /// Run a slice if kSliceEveryMs of work passed since the last one.
  void maybe_slice();

  /// Scale factor kRefSliceMs / median(bracketing slices) of the
  /// interval [t0, t1]; call once slices after t1 exist.
  [[nodiscard]] double scale(double t0, double t1) const;

  [[nodiscard]] const std::vector<double>& starts() const { return start_; }
  [[nodiscard]] const std::vector<double>& durations() const { return ms_; }
  [[nodiscard]] const std::vector<std::array<double, kParts>>& parts() const {
    return parts_;
  }

 private:
  std::vector<double> window_;  ///< 1 MiB streamed
  std::vector<double> dense_;   ///< Cholesky matrix
  std::vector<double> start_;
  std::vector<double> ms_;
  std::vector<std::array<double, kParts>> parts_;
  double last_end_ = 0.0;
};

}  // namespace perfbench
