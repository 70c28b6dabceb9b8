#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string RunningStats::summary(int precision) const {
  return cat("n=", count_, ", mean=", fmt_double(mean(), precision),
             ", sd=", fmt_double(stddev(), precision),
             ", min=", fmt_double(min(), precision),
             ", max=", fmt_double(max(), precision));
}

Json RunningStats::to_json() const {
  Json out = Json::object();
  out.set("count", count_);
  out.set("mean", mean());
  out.set("stddev", stddev());
  out.set("min", min());
  out.set("max", max());
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  PTE_REQUIRE(hi > lo, "histogram range must be non-empty");
  PTE_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  std::size_t bin = static_cast<std::size_t>((x - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  PTE_REQUIRE(bin < counts_.size(), "bin out of range");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const { return lo_ + width_ * static_cast<double>(bin); }

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + width_; }

std::string Histogram::summary() const {
  return cat("n=", total_, ", in-range=", total_ - underflow_ - overflow_,
             ", underflow=", underflow_, ", overflow=", overflow_);
}

std::string Histogram::render(std::size_t max_width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t w = counts_[b] * max_width / peak;
    out += pad(cat("[", fmt_compact(bin_lo(b), 3), ", ", fmt_compact(bin_hi(b), 3), ")"), 20,
               true);
    out += " | " + std::string(w, '#') + " " + std::to_string(counts_[b]) + "\n";
  }
  if (underflow_ > 0 || overflow_ > 0)
    out += cat("out-of-range: ", underflow_, " below, ", overflow_, " above\n");
  return out;
}

double quantile(std::vector<double> xs, double q) {
  PTE_REQUIRE(!xs.empty(), "quantile of empty sample");
  PTE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order must be in [0,1]");
  std::sort(xs.begin(), xs.end());
  const double idx = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace ptecps::util
