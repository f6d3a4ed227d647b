/**
 * @file
 * Fast deterministic random number generation for Monte-Carlo sampling.
 *
 * Xoshiro256** seeded through SplitMix64, plus helpers used heavily by the
 * frame simulator: Bernoulli draws, geometric skip-sampling (visits only
 * the shots where a rare event fires), ranged integers and Poisson draws.
 */

#ifndef SURF_UTIL_RNG_HH
#define SURF_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace surf {

/**
 * Xoshiro256** pseudo-random generator. Deterministic for a given seed so
 * every experiment in this repository is reproducible.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via SplitMix64. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit output. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) (bound > 0). */
    uint64_t below(uint64_t bound);

    /** Bernoulli draw with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Geometric skip: number of additional trials to skip until the next
     * success of a Bernoulli(p) process. Returns a huge value when p == 0.
     */
    uint64_t geometricSkip(double p);

    /**
     * The skip geometricSkip returns for uniform draw u in (0, 1) and
     * log1m = log1p(-p): floor(log(u) / log1m), saturated to ~0 when the
     * quotient does not fit in 64 bits (tiny p), so a near-zero channel
     * never fires instead of wrapping to an event in every shot.
     */
    static uint64_t skipFor(double u, double log1m);

    /** Poisson draw with mean lambda (Knuth for small, normal approx large). */
    uint64_t poisson(double lambda);

    /** Exponential draw with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Sample k distinct values from [0, n) (k <= n). */
    std::vector<uint32_t> sampleWithoutReplacement(uint32_t n, uint32_t k);

  private:
    uint64_t s_[4];
};

} // namespace surf

#endif // SURF_UTIL_RNG_HH
