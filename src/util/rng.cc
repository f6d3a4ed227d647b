#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace surf {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

inline uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &w : s_)
        w = splitMix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::below(uint64_t bound)
{
    SURF_ASSERT(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

uint64_t
Rng::geometricSkip(double p)
{
    if (p <= 0.0)
        return ~0ULL;
    if (p >= 1.0)
        return 0;
    double u = uniform();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return skipFor(u, std::log1p(-p));
}

uint64_t
Rng::skipFor(double u, double log1m)
{
    const double skip = std::floor(std::log(u) / log1m);
    return skip >= 0x1.0p64 ? ~0ULL : static_cast<uint64_t>(skip);
}

uint64_t
Rng::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth's multiplication method.
        const double limit = std::exp(-lambda);
        uint64_t k = 0;
        double prod = uniform();
        while (prod > limit) {
            ++k;
            prod *= uniform();
        }
        return k;
    }
    // Normal approximation with continuity correction for large lambda.
    const double u1 = uniform(), u2 = uniform();
    const double z = std::sqrt(-2.0 * std::log(u1 + 1e-300)) *
                     std::cos(6.283185307179586 * u2);
    const double v = lambda + std::sqrt(lambda) * z + 0.5;
    return v < 0.0 ? 0 : static_cast<uint64_t>(v);
}

double
Rng::exponential(double rate)
{
    SURF_ASSERT(rate > 0.0);
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -std::log(u) / rate;
}

std::vector<uint32_t>
Rng::sampleWithoutReplacement(uint32_t n, uint32_t k)
{
    SURF_ASSERT(k <= n);
    // Partial Fisher-Yates over an index vector.
    std::vector<uint32_t> idx(n);
    for (uint32_t i = 0; i < n; ++i)
        idx[i] = i;
    for (uint32_t i = 0; i < k; ++i) {
        uint32_t j = i + static_cast<uint32_t>(below(n - i));
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
}

} // namespace surf
