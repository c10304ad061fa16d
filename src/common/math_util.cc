#include "common/math_util.h"

#include <cmath>
#include <limits>

#include "common/status.h"

namespace mope {

double LogFactorial(uint64_t n) {
  // lgamma_r, not std::lgamma: lgamma stores the sign of Γ in the global
  // signgam, a data race between threads that draw HGD samples at once (the
  // OPE walk takes no lock). Both return the same value.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double LogBinomial(uint64_t n, uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

double LogHypergeometricPmf(uint64_t total, uint64_t success, uint64_t draws,
                            uint64_t k) {
  MOPE_CHECK(success <= total && draws <= total, "HG parameters out of range");
  const uint64_t fail = total - success;
  if (k > draws || k > success || draws - k > fail) {
    return -std::numeric_limits<double>::infinity();
  }
  return LogBinomial(success, k) + LogBinomial(fail, draws - k) -
         LogBinomial(total, draws);
}

double HypergeometricMean(uint64_t total, uint64_t success, uint64_t draws) {
  MOPE_CHECK(total > 0, "HG total must be positive");
  return static_cast<double>(draws) * static_cast<double>(success) /
         static_cast<double>(total);
}

double LogBinomialTail(uint64_t n, double p, uint64_t k) {
  MOPE_CHECK(p >= 0.0 && p <= 1.0, "binomial p must be in [0, 1]");
  if (k >= n) return 0.0;
  if (p == 0.0) return 0.0;  // all mass at X = 0 <= k < n
  if (p == 1.0) return -std::numeric_limits<double>::infinity();
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  // logsumexp over i = 0..k of log C(n, i) + i log p + (n - i) log(1 - p).
  double max_term = -std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i <= k; ++i) {
    const double term = LogBinomial(n, i) + static_cast<double>(i) * log_p +
                        static_cast<double>(n - i) * log_q;
    if (term > max_term) max_term = term;
  }
  double sum = 0.0;
  for (uint64_t i = 0; i <= k; ++i) {
    const double term = LogBinomial(n, i) + static_cast<double>(i) * log_p +
                        static_cast<double>(n - i) * log_q;
    sum += std::exp(term - max_term);
  }
  const double log_tail = max_term + std::log(sum);
  return log_tail > 0.0 ? 0.0 : log_tail;  // clamp fp noise at log 1
}

double NormalQuantile(double p) {
  MOPE_CHECK(p > 0.0 && p < 1.0, "NormalQuantile requires p in (0, 1)");
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

double ChiSquareCriticalValue(double df, double alpha) {
  MOPE_CHECK(df > 0 && alpha > 0 && alpha < 1, "invalid chi-square params");
  // Wilson-Hilferty: X ~ df * (1 - 2/(9 df) + z * sqrt(2/(9 df)))^3.
  const double z = NormalQuantile(1.0 - alpha);
  const double t = 2.0 / (9.0 * df);
  const double cube = 1.0 - t + z * std::sqrt(t);
  return df * cube * cube * cube;
}

int FloorLog2(uint64_t x) {
  MOPE_CHECK(x >= 1, "FloorLog2 requires x >= 1");
  int r = 0;
  while (x >>= 1) ++r;
  return r;
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace mope
