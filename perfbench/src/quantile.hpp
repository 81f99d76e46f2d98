// Harrell–Davis quantile estimator.
//
// A nearest-rank percentile jumps from one order statistic to the next when
// the sample shifts a little, and the job mix makes latency samples
// multi-modal (short BFS, long PageRank), so a rank that falls between two
// modes flips between them from run to run. Harrell–Davis takes a weighted
// mean of all order statistics, with Beta((n+1)q, (n+1)(1-q)) weights that
// concentrate around rank q*n: the same quantile, estimated with less
// variance (Harrell and Davis, Biometrika 69(3), 1982).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

namespace detail {

/// Continued fraction for the regularized incomplete beta (modified Lentz).
inline double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEpsilon = 1e-15;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_continued_fraction(a, b, x) / a;
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace detail

/// Harrell–Davis estimate of quantile q in (0, 1); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = (n + 1.0) * q;
  const double b = (n + 1.0) * (1.0 - q);
  double estimate = 0.0;
  double below = 0.0;  // I_{(i-1)/n}(a, b)
  for (std::size_t i = 1; i <= values.size(); ++i) {
    const double upto = detail::incomplete_beta(a, b, static_cast<double>(i) / n);
    estimate += (upto - below) * values[i - 1];
    below = upto;
  }
  return estimate;
}

}  // namespace perfbench
