// Deterministic, seedable PRNG used everywhere randomness is needed so that
// all datasets, job mixes and traces are reproducible run-to-run.
#pragma once

#include <cstdint>

namespace graphm::util {

/// SplitMix64 — tiny, fast, and good enough for workload generation.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Jumps ahead as if next() had been called n times, in O(1): the state
  /// is a counter stepping by a fixed odd constant, and next() only mixes
  /// it. Lets a stream be split into slices that are drawn independently.
  void discard(std::uint64_t n) { state_ += n * kGamma; }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) { return lo + (hi - lo) * next_double(); }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  std::uint64_t state_;
};

/// Named-stream seed derivation: one root seed fans out into independent
/// child streams so separate consumers (service-time jitter vs. fault
/// injection) never perturb each other's draw sequences. Stream 0 is the
/// root itself — pre-split consumers seeded SplitMix64 with the raw root,
/// and stream 0 keeps their output bit-identical. Other stream ids run the
/// SplitMix64 finalizer over a root/id mix, so siblings are statistically
/// independent of the root stream and of each other.
inline std::uint64_t derive_stream_seed(std::uint64_t root, std::uint64_t stream) {
  if (stream == 0) return root;
  SplitMix64 mix(root ^ (stream * 0xA3EC647659359ACDULL));
  return mix.next();
}

/// Draws from Exp(rate); used for Poisson-process inter-arrival times.
inline double exponential_sample(SplitMix64& rng, double rate) {
  // Inverse-CDF; next_double() < 1 so the log argument stays positive.
  double u = rng.next_double();
  if (u <= 0.0) u = 1e-12;
  return -__builtin_log(1.0 - u) / rate;
}

}  // namespace graphm::util
