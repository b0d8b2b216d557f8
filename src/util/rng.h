// Deterministic, splittable random-number generation.
//
// Every stochastic component (loss models, channels, workloads) takes an Rng
// constructed from the experiment seed plus a component label, so adding or
// reordering components does not perturb the random streams of the others.
// Experiments are therefore bit-reproducible given the same seed.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace hsr::util {

// Mixes a 64-bit state into a well-distributed output (SplitMix64 finalizer).
std::uint64_t splitmix64(std::uint64_t x);

// Hashes a label into a 64-bit stream id (FNV-1a + splitmix finalization).
std::uint64_t hash_label(std::string_view label);

class Rng {
 public:
  // Root generator for an experiment.
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)), seed_(seed) {}

  // Derives an independent substream for a named component.
  Rng fork(std::string_view label) const {
    return Rng(splitmix64(seed_ ^ hash_label(label)));
  }
  // Derives an independent substream for an indexed component (flow i, ...).
  Rng fork(std::string_view label, std::uint64_t index) const {
    return Rng(splitmix64(seed_ ^ hash_label(label) ^ splitmix64(index + 0x9e3779b97f4a7c15ULL)));
  }

  // Uniform in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }
  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  // Bernoulli with probability p (p outside [0,1] is clamped).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  // Exponential with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  // Normal (Gaussian).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  // Log-normal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;  // determinism-ok: the Rng wrapper itself
  std::uint64_t seed_ = 0;
};

}  // namespace hsr::util
