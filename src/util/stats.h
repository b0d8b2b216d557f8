// Streaming and batch statistics used by the measurement methodology:
// running moments (Welford), empirical CDFs, percentiles, Pearson
// correlation and least-squares fits.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace hsr::util {

// Numerically stable running mean/variance (Welford's algorithm). There is
// deliberately no merge: combining partial moments (Chan's method) is not
// bitwise equal to one ordered add sequence, and every consumer absorbs in
// flow order for byte-identical digests.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }
  // Raw second central moment (sum of squared deviations); exposed so the
  // accumulator can be serialized and rebuilt losslessly (corpus_stats).
  double m2() const { return m2_; }

  // Rebuilds an accumulator from its serialized parts. The inverse of
  // (count, mean, m2, min, max) — bitwise, provided the doubles round-trip.
  static RunningStats from_parts(std::size_t n, double mean, double m2, double min,
                                 double max) {
    RunningStats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// An empirical cumulative distribution over a finite sample.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  void add(double x);
  // Sorts pending samples; called implicitly by queries.
  void finalize();

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  // F(x): fraction of samples <= x.
  double cdf(double x);
  // Inverse CDF; p in [0,1], clamped. Linear interpolation between order
  // statistics.
  double quantile(double p);
  double median() { return quantile(0.5); }
  double mean() const;
  // Evenly spaced (x, F(x)) points suitable for plotting, at most
  // `max_points` of them.
  std::vector<std::pair<double, double>> curve(std::size_t max_points = 100);

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
};

// Pearson correlation coefficient of two equal-length series.
// Returns 0 for degenerate inputs (length < 2 or zero variance).
double pearson_correlation(const std::vector<double>& xs, const std::vector<double>& ys);

// Simple least-squares line fit y = a + b x. Returns {a, b};
// {mean(y), 0} for degenerate inputs.
std::pair<double, double> linear_fit(const std::vector<double>& xs,
                                     const std::vector<double>& ys);

double mean_of(const std::vector<double>& xs);

}  // namespace hsr::util
