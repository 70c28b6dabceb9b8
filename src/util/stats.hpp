// Streaming statistics used by the benchmark harness and the loss models'
// tests: Welford running moments plus a fixed-bin histogram.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ptecps::util {

/// Numerically stable streaming mean / variance / min / max (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other);

  /// "n=…, mean=…, sd=…, min=…, max=…" for reports.
  std::string summary(int precision = 3) const;

  /// {"count", "mean", "stddev", "min", "max"} on the shared JSON layer
  /// (the writer turns any non-finite moment into null, never "nan").
  Json to_json() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi).
///
/// Out-of-range semantics: samples below `lo` / at-or-above `hi` are NOT
/// folded into the edge bins (that used to bias the reported tails — a
/// p99 read off a histogram whose last bin silently absorbed every
/// overflow looks artificially flat).  They are counted separately as
/// `underflow()` / `overflow()`; `total()` still includes them so
/// delivery-ratio style computations stay correct, while `bin_count()`
/// only ever reports in-range mass.  Reports (summary(), render())
/// surface the out-of-range counts explicitly.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t bin) const;
  /// All samples ever added, including out-of-range ones.
  std::size_t total() const { return total_; }
  /// Samples below lo / at-or-above hi (excluded from every bin).
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// "n=…, in-range=…, underflow=…, overflow=…" for reports.
  std::string summary() const;

  /// Render as an ASCII bar chart (used by bench output); out-of-range
  /// counts are appended as a footer line when non-zero.
  std::string render(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

/// Exact quantile of a copy-and-sort of `xs` (q in [0,1]).
double quantile(std::vector<double> xs, double q);

}  // namespace ptecps::util
