#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

/// \file
/// Seed-deterministic helpers of the end-to-end benchmark: percentiles
/// with the "ten samples beyond" rule, the seeded stream every pool and
/// schedule is drawn from, the open-loop Poisson schedule, and the
/// metric-name rules the results must follow.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// Samples a percentile needs strictly beyond it before it is reported:
/// a tail read from fewer points moves with every outlier.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Linear-interpolated `q`-quantile (q in [0, 1]) of `values`, the same
/// rule as numpy's default. Empty input yields 0.
double Percentile(std::vector<double> values, double q);

/// How many of `n` samples lie strictly above the `q`-quantile's rank.
std::size_t SamplesBeyond(std::size_t n, double q);

double Mean(const std::vector<double>& values);

/// splitmix64: the benchmark's only source of randomness. Every derived
/// seed and draw goes through it, so a seed fixes every input bit for
/// bit, independent of the standard library's distributions.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double NextUnit();
  /// Uniform in [0, bound).
  std::uint64_t NextBelow(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// A request class share, in requests per block of `kMixBlock`.
inline constexpr int kMixBlock = 100;

/// A class sequence of `n` entries drawn in shuffled blocks of
/// `kMixBlock`, so each block holds exactly `shares[c]` entries of class
/// `c` (the shares must sum to `kMixBlock`). Exact shares keep the
/// percentiles inside one class from seed to seed.
std::vector<int> ClassSequence(const std::vector<int>& shares, std::size_t n,
                               SeedStream& stream);

/// Due times (ms from the start of the phase) of a Poisson arrival
/// process at `rate_per_s`, covering `duration_s`.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    SeedStream& stream);

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, '_', '.' and '-'.
bool ValidMetricName(std::string_view name);

/// A unit holds 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(std::string_view unit);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
