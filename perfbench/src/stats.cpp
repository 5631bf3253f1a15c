#include "stats.h"

#include <algorithm>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail supported_tail(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  t.value = median(v);
  for (const double level : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Integer test: n * (100 - level) / 100 >= 10, with level in tenths.
    const auto tenths = static_cast<std::size_t>(level * 10.0 + 0.5);
    if (t.n * (1000 - tenths) < 10 * 1000) break;
    t.level = level;
    t.value = percentile(v, level / 100.0);
  }
  return t;
}

std::string Tail::label() const {
  std::ostringstream os;
  os << 'p' << (level > 0.0 ? level : 50.0);
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
