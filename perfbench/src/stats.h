#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// The tail sample of a timing distribution: the highest percentile that
/// still has `beyond` samples above it.
struct TailSample {
  bool ok = false;
  double value = 0;
  /// Share of samples at or below `value`, in percent.
  double percentile = 0;
  /// Samples ranked above `value`.
  size_t beyond = 0;
};

/// Picks the highest percentile with at least `min_beyond` samples
/// beyond it: the sample of rank n - min_beyond (1-based) in ascending
/// order. Not ok when there are fewer than min_beyond + 1 samples.
inline TailSample TailPercentile(std::vector<double> samples,
                                 size_t min_beyond = 10) {
  TailSample tail;
  const size_t n = samples.size();
  if (n < min_beyond + 1) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t index = n - min_beyond - 1;
  tail.ok = true;
  tail.value = samples[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  tail.beyond = n - index - 1;
  return tail;
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

/// Each op's time over the mean of the reference-task runs just before
/// and just after it: `times[i]` was measured between `reference[at[i]]`
/// and `reference[at[i] + 1]`, which must exist.
inline std::vector<double> OverReference(const std::vector<double>& times,
                                         const std::vector<size_t>& at,
                                         const std::vector<double>& reference) {
  std::vector<double> ratios;
  ratios.reserve(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    const double around = (reference[at[i]] + reference[at[i] + 1]) / 2;
    ratios.push_back(times[i] / around);
  }
  return ratios;
}

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool ValidMetricName(std::string_view name) {
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
