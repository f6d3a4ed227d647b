/**
 * @file
 * Full QEC pipeline example: run Monte-Carlo memory experiments on a
 * pristine patch, an untreated defective patch, and a Surf-Deformer
 * deformed patch, and compare logical error rates. The results are
 * identical for any decode thread count.
 *
 * Usage: example_memory_experiment [threads] [d] [rounds] [seed]
 * (defaults: threads=hardware, d=5, rounds=d, seed=0x5eed)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/deformation_unit.hh"
#include "decode/memory_experiment.hh"
#include "lattice/rotated.hh"
#include "util/thread_pool.hh"

using namespace surf;

int
main(int argc, char **argv)
{
    const int d = argc > 2 ? std::max(3, std::atoi(argv[2])) : 5;
    const std::set<Coord> defects{{5, 5}, {4, 4}};

    MemoryExperimentConfig cfg;
    cfg.spec.basis = PauliType::Z;
    cfg.spec.rounds = argc > 3 ? std::max(1, std::atoi(argv[3])) : d;
    cfg.noise.p = 2e-3;
    cfg.maxShots = 20000;
    cfg.targetFailures = 1u << 30;
    cfg.threads = argc > 1 ? static_cast<size_t>(std::max(0, std::atoi(argv[1]))) : 0;
    if (argc > 4)
        cfg.seed = static_cast<uint64_t>(std::atoll(argv[4]));

    const size_t threads =
        cfg.threads ? cfg.threads : ThreadPool::hardwareThreads();
    // cfg.decoder is Auto: MWPM, union-find above mwpmDefectCap.
    std::printf("memory-Z, %d rounds, p = %.0e, MWPM decoding (union-find "
                "above %zu fired detectors), %lu shots per configuration, "
                "%zu decode thread%s\n\n",
                cfg.spec.rounds, cfg.noise.p, cfg.mwpmDefectCap,
                static_cast<unsigned long>(cfg.maxShots), threads,
                threads == 1 ? "" : "s");
    const auto t_start = std::chrono::steady_clock::now();

    // 1. Pristine distance-d code.
    const auto pristine = runMemoryExperiment(squarePatch(d), cfg);
    std::printf("pristine d=%-2d:           p_L/round = %.3e (+/- %.1e)\n",
                d, pristine.pRound, pristine.se);

    // 2. Same code with a defective region left untreated (50%% rates).
    auto bad_cfg = cfg;
    bad_cfg.noise.defectiveSites = defects;
    const auto untreated = runMemoryExperiment(squarePatch(d), bad_cfg);
    std::printf("untreated defects:       p_L/round = %.3e\n",
                untreated.pRound);

    // 3. Surf-Deformer removes the defective qubits.
    DeformConfig dc;
    dc.d = d;
    dc.deltaD = 0;
    dc.enlargement = false;
    const auto deformed = DeformationUnit(dc).apply(defects);
    const auto removed = runMemoryExperiment(deformed.result.patch, cfg);
    std::printf("Surf-Deformer removal:   p_L/round = %.3e "
                "(deformed distance %zu)\n",
                removed.pRound,
                std::min(deformed.result.distX, deformed.result.distZ));

    const double total_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t_start)
                                .count();
    std::printf("\nremoval recovers %.0fx of the untreated error rate.\n",
                untreated.pRound / std::max(removed.pRound, 1e-12));
    std::printf("%.0f ms total: %.0f kshots/s through the "
                "sample-decode pipeline.\n",
                total_ms, 3 * cfg.maxShots / total_ms);
    return 0;
}
