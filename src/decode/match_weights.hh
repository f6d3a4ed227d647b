/**
 * @file
 * Shared integer weight construction of the MWPM decode paths. All
 * backends (dense tables, sparse rows + mirror instance, matrix-free
 * sparse blossom) build their matching instances through these helpers,
 * which is what makes their results comparable shot for shot:
 *
 *  - distances are quantized at 1/1024 (llround(w * 1024)), so total
 *    matched weight is an exact cross-backend invariant;
 *  - below the quantized weight, kMatchTieBits low-order bits hold a
 *    deterministic hash of the endpoint *node ids*. Ordering by true
 *    weight is unchanged (the tie-break can never bridge a 1/1024
 *    step), but equal-weight matchings become generically distinct, so
 *    every backend — whichever blossom algorithm it runs — picks the
 *    same optimum on ties instead of an arbitrary algorithm-dependent
 *    one. Node ids are backend-independent, which makes the perturbed
 *    instance, and therefore the matching, backend-independent too.
 */

#ifndef SURF_DECODE_MATCH_WEIGHTS_HH
#define SURF_DECODE_MATCH_WEIGHTS_HH

#include <cmath>
#include <cstdint>

namespace surf {

/** Quantization scale of matching weights (1/1024 granularity). */
inline constexpr double kMatchWeightScale = 1024.0;

/** Low-order bits reserved for the deterministic tie-break hash. */
inline constexpr int kMatchTieBits = 16;

/** Quantize a path distance (no tie-break bits). */
inline int64_t
quantizeMatchWeight(double w)
{
    return static_cast<int64_t>(std::llround(w * kMatchWeightScale));
}

/** Symmetric tie-break hash of an unordered node-id pair, < 2^16. */
inline int64_t
matchTieBreak(int a, int b)
{
    const auto lo = static_cast<uint64_t>(a < b ? a : b);
    const auto hi = static_cast<uint64_t>(a < b ? b : a);
    uint64_t h = (lo + 1) * 0x9e3779b97f4a7c15ULL ^
                 (hi + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 32;
    return static_cast<int64_t>(h & 0xffffu);
}

/** Full matching weight: quantized distance + endpoint tie-break. */
inline int64_t
perturbedMatchWeight(double w, int node_a, int node_b)
{
    return (quantizeMatchWeight(w) << kMatchTieBits) |
           matchTieBreak(node_a, node_b);
}

/** Recover the quantized (true) weight of one perturbed edge. */
inline int64_t
trueMatchWeight(int64_t perturbed)
{
    return perturbed >> kMatchTieBits;
}

} // namespace surf

#endif // SURF_DECODE_MATCH_WEIGHTS_HH
