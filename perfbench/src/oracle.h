// Correctness oracle, run outside every timed region. It recomputes
// residuals with its own loops instead of trusting the library's.
#pragma once

#include <span>

#include "sparse/csc.h"

namespace perfbench {

/// Largest accepted relative residual.
inline constexpr double kResidualBound = 1e-10;

/// ||A x - b||inf / (||A||inf ||x||inf + ||b||inf), A symmetric given by
/// its lower triangle.
double sym_residual(const sympiler::CscMatrix& a_lower,
                    std::span<const double> x, std::span<const double> b);

/// ||L x - b||inf / (||L||inf ||x||inf + ||b||inf), L lower triangular.
double lower_residual(const sympiler::CscMatrix& l, std::span<const double> x,
                      std::span<const double> b);

}  // namespace perfbench
