#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hsr::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {
  finalize();
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::finalize() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::cdf(double x) {
  finalize();
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double p) {
  finalize();
  if (samples_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t max_points) {
  finalize();
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || max_points == 0) return out;
  const std::size_t n = samples_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    out.emplace_back(samples_[i], static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().first != samples_.back()) {
    out.emplace_back(samples_.back(), 1.0);
  }
  return out;
}

double pearson_correlation(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean_of(xs);
  const double my = mean_of(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::pair<double, double> linear_fit(const std::vector<double>& xs,
                                     const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    return {mean_of(ys), 0.0};
  }
  const double mx = mean_of(xs);
  const double my = mean_of(ys);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  if (sxx <= 0.0) return {my, 0.0};
  const double b = sxy / sxx;
  return {my - b * mx, b};
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

}  // namespace hsr::util
