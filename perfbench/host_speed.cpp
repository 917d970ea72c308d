#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kDim = 24;
constexpr int kProducts = 16;
/// Back-to-back runs per sample: the median drops a run that refilled
/// the caches the measured work evicted, or that was preempted.
constexpr int kRuns = 5;

/// One run of the kernel: kProducts dense complex kDim x kDim matrix
/// products, alternating the operands, with every product's trace kept.
double kernel_seconds() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<std::complex<double>> a(kDim * kDim), b(kDim * kDim),
      c(kDim * kDim);
  for (std::size_t i = 0; i < kDim * kDim; ++i) {
    a[i] = std::polar(1.0 / kDim, 0.1 * static_cast<double>(i));
    b[i] = std::polar(1.0 / kDim, -0.3 * static_cast<double>(i));
  }
  std::complex<double> trace = 0.0;
  for (int p = 0; p < kProducts; ++p) {
    std::fill(c.begin(), c.end(), std::complex<double>(0.0));
    for (std::size_t i = 0; i < kDim; ++i)
      for (std::size_t k = 0; k < kDim; ++k) {
        const std::complex<double> x = a[i * kDim + k];
        for (std::size_t j = 0; j < kDim; ++j)
          c[i * kDim + j] += x * b[k * kDim + j];
      }
    for (std::size_t i = 0; i < kDim; ++i) trace += c[i * kDim + i];
    std::swap(a, b);
  }
  // Keep the result alive so the products cannot be dropped.
  volatile double sink = trace.real();
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double reference_seconds() {
  double runs[kRuns];
  for (double& run : runs) run = kernel_seconds();
  std::nth_element(runs, runs + kRuns / 2, runs + kRuns);
  return runs[kRuns / 2];
}

}  // namespace perfbench
