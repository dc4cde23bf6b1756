#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace e2ebench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  // Samples strictly above the interpolation rank q * (n - 1).
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  const std::size_t at_or_below =
      static_cast<std::size_t>(std::floor(rank)) + 1;
  return n - std::min(n, at_or_below);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t SeedStream::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedStream::NextUnit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t SeedStream::NextBelow(std::uint64_t bound) {
  return bound == 0 ? 0 : Next() % bound;
}

std::vector<int> ClassSequence(const std::vector<int>& shares, std::size_t n,
                               SeedStream& stream) {
  if (std::accumulate(shares.begin(), shares.end(), 0) != kMixBlock) {
    throw std::invalid_argument("class shares must sum to the block size");
  }
  std::vector<int> block;
  for (std::size_t c = 0; c < shares.size(); ++c) {
    block.insert(block.end(), static_cast<std::size_t>(shares[c]),
                 static_cast<int>(c));
  }
  std::vector<int> sequence;
  sequence.reserve(n + block.size());
  while (sequence.size() < n) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[stream.NextBelow(i)]);
    }
    sequence.insert(sequence.end(), block.begin(), block.end());
  }
  sequence.resize(n);
  return sequence;
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    SeedStream& stream) {
  std::vector<double> due_ms;
  double t_ms = 0.0;
  while (true) {
    t_ms += -std::log(1.0 - stream.NextUnit()) / rate_per_s * 1000.0;
    if (t_ms >= duration_s * 1000.0) {
      break;
    }
    due_ms.push_back(t_ms);
  }
  return due_ms;
}

namespace {

bool IsAlnum(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

}  // namespace e2ebench
