/**
 * @file
 * Regenerates paper fig. 14(b): robustness to unreliable defect
 * detection. The deformation unit acts on the *observed* defect set
 * (false positive/negative rates 0.01) while the noise follows the true
 * one; compared against precise detection and the untreated code (d=9).
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/deformation_unit.hh"
#include "decode/memory_experiment.hh"
#include "defects/detector_model.hh"
#include "lattice/rotated.hh"
#include "util/rng.hh"

using namespace surf;

namespace {

bool
checkAtSite(const CodePatch &p, Coord c)
{
    for (const auto &ch : p.checks())
        if (ch.ancilla && *ch.ancilla == c)
            return true;
    return false;
}

double
removedRate(const std::set<Coord> &observed, const std::set<Coord> &truth,
            int d, double scale, uint64_t seed)
{
    DeformConfig dc;
    dc.d = d;
    dc.deltaD = 0;
    dc.enlargement = false;
    const auto deformed = DeformationUnit(dc).apply(observed);
    if (!deformed.result.alive)
        return 0.5;
    MemoryExperimentConfig cfg;
    cfg.spec.rounds = d;
    cfg.noise.p = 1e-3;
    cfg.maxShots = static_cast<uint64_t>(5000 * scale);
    cfg.targetFailures = static_cast<uint64_t>(60 * scale);
    cfg.seed = seed;
    // Missed defects stay in the deformed code at saturated rates.
    for (const Coord &c : truth)
        if (deformed.result.patch.hasData(c) ||
            checkAtSite(deformed.result.patch, c))
            cfg.noise.defectiveSites.insert(c);
    return runMemoryExperiment(deformed.result.patch, cfg).pRound;
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchutil::scale(argc, argv);
    const int d = 9;
    benchutil::header("Fig. 14(b): precise vs imprecise defect detection "
                      "(d=9, fp=fn=0.01)");
    std::printf("%4s | %-14s %-16s %-18s\n", "#def", "untreated",
                "precise SD", "imprecise SD");

    Rng rng(4242);
    for (int k : {4, 8, 16, 24, 32}) {
        const CodePatch pristine = squarePatch(d);
        const auto truth = benchutil::clusteredDefects(pristine, k, rng);

        MemoryExperimentConfig cfg;
        cfg.spec.rounds = d;
        cfg.noise.p = 1e-3;
        cfg.noise.defectiveSites = truth;
        cfg.maxShots = static_cast<uint64_t>(5000 * scale);
        cfg.targetFailures = static_cast<uint64_t>(60 * scale);
        cfg.seed = 5 + k;
        const auto untreated = runMemoryExperiment(pristine, cfg);

        const double precise = removedRate(truth, truth, d, scale,
                                           77 + static_cast<uint64_t>(k));
        DetectorModel detector;
        detector.falsePositive = 0.01;
        detector.falseNegative = 0.01;
        const auto observed = detector.observe(truth, pristine, rng);
        const double imprecise = removedRate(
            observed, truth, d, scale, 177 + static_cast<uint64_t>(k));

        std::printf("%4d | %-14.3e %-16.3e %-18.3e\n", k, untreated.pRound,
                    precise, imprecise);
    }
    std::printf("\nExpected shape (paper): the imprecise curve tracks the\n"
                "precise one closely; both are far below untreated.\n");
    return 0;
}
