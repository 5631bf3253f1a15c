// Summary statistics and small process probes shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile of `v` at fraction p in [0, 1]; 0 for an
/// empty sample.
double percentile(std::vector<double> v, double p);

double median(const std::vector<double>& v);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// The tail the sample supports: the highest of the percentiles 50, 75, 90,
/// 95, 99 and 99.9 that still has at least ten samples beyond it, i.e.
/// n * (1 - p) >= 10. `level` is 0 (and `value` the median) when n < 20.
struct Tail {
  double level = 0.0;  // percentile, e.g. 99.0
  double value = 0.0;
  std::size_t n = 0;
  /// "p99", "p99.9", or "p50" when the sample supports no tail.
  std::string label() const;
};
Tail supported_tail(const std::vector<double>& v);

/// FNV-1a over a byte string; workloads hash a text tape of their
/// deterministic outputs (hexfloat costs, delivered counts).
std::uint64_t fnv1a(const std::string& s);

/// Peak resident set size of this process in MiB, 0 if unknown.
double peak_rss_mb();

}  // namespace perfbench
