/**
 * @file
 * Decoder-backend micro-bench: dense (precomputed all-pairs tables) vs
 * sparse rows (on-demand bounded Dijkstra) vs the matrix-free sparse
 * blossom. Measures the cold path every new deformed-patch shape pays —
 * decoding-graph construction — steady-state decode throughput, and
 * warm burst-syndrome throughput (shots/sec vs fired-defect count, the
 * Q3DE-style cosmic-ray regime the matrix-free matcher was designed
 * for; rows memoized before timing) for each path and for the default
 * dispatch between rows and matcher. Verifies that the default sparse
 * decoder matches dense (prediction and matched weight) on every
 * sampled and every burst shot, and that the sparse blossom's matched
 * weight equals the dense blossom's on every burst shot. Emits
 * BENCH_decoder.json.
 *
 * Flags: --scale=S (shot budget), --dmax=N (default 13), --dburst=N
 * (default 11, burst-section distance), --json=DIR.
 * Exits non-zero on any equivalence violation, so CI smoke runs double
 * as the cross-backend gate.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "burst_syndromes.hh"
#include "decode/mwpm.hh"
#include "lattice/rotated.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"
#include "util/rng.hh"

using namespace surf;
using namespace surf::benchutil;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const double s = scale(argc, argv);
    const int dmax = static_cast<int>(flagValue(argc, argv, "dmax", 13));
    const size_t shots = std::max<size_t>(
        64, static_cast<size_t>(flagValue(argc, argv, "shots", 1024) * s));
    const int build_reps = 5;
    JsonReport report(argc, argv, "decoder");

    header("MWPM backends: dense APSP tables vs sparse on-demand Dijkstra");
    std::printf("%zu shots per distance, %d build reps, p=2e-3\n\n", shots,
                build_reps);
    std::printf("  d    nodes  build dense  build sparse   speedup"
                "   decode dense   decode sparse\n");

    bool all_agree = true;
    for (int d = 3; d <= dmax; d += 2) {
        MemorySpec spec;
        spec.rounds = d;
        NoiseParams noise;
        noise.p = 2e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(squarePatch(d), spec, noise);
        const auto dem = buildDem(built.circuit, PauliType::Z);

        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < build_reps; ++r) {
            const MwpmDecoder probe(dem, 1, nullptr, MatchingBackend::Dense);
            (void)probe;
        }
        const double dense_build = secondsSince(t0) / build_reps;
        t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < build_reps; ++r) {
            const MwpmDecoder probe(dem, 1, nullptr, MatchingBackend::Sparse);
            (void)probe;
        }
        const double sparse_build = secondsSince(t0) / build_reps;

        const MwpmDecoder dense(dem, 1, nullptr, MatchingBackend::Dense);
        const MwpmDecoder sparse(dem, 1, nullptr, MatchingBackend::Sparse);
        FrameSimulator sim(built.circuit, shots, 20240731);
        const SparseSyndromes syndromes = sim.sparseFiredDetectors();
        MwpmScratch scratch;

        std::vector<uint8_t> dense_pred(shots), sparse_pred(shots);
        std::vector<int64_t> dense_weight(shots), sparse_weight(shots);
        t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < shots; ++i) {
            dense_pred[i] =
                dense.decode(syndromes.data(i), syndromes.count(i), scratch);
            dense_weight[i] = scratch.lastWeight;
        }
        const double dense_decode = secondsSince(t0);
        t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < shots; ++i) {
            sparse_pred[i] =
                sparse.decode(syndromes.data(i), syndromes.count(i), scratch);
            sparse_weight[i] = scratch.lastWeight;
        }
        const double sparse_decode = secondsSince(t0);

        size_t default_disagree = 0;
        for (size_t i = 0; i < shots; ++i)
            default_disagree += dense_pred[i] != sparse_pred[i] ||
                                dense_weight[i] != sparse_weight[i];
        if (default_disagree)
            all_agree = false;

        const size_t nodes = dense.graph().numNodes();
        std::printf("%3d  %7zu  %8.3f ms  %9.4f ms  %7.1fx  %9.0f sh/s"
                    "  %9.0f sh/s%s\n",
                    d, nodes, 1e3 * dense_build, 1e3 * sparse_build,
                    dense_build / std::max(1e-9, sparse_build),
                    shots / std::max(1e-9, dense_decode),
                    shots / std::max(1e-9, sparse_decode),
                    default_disagree ? "  DISAGREE (BUG)" : "");

        const std::string suffix = "_d" + std::to_string(d);
        report.metric("build_ms_dense" + suffix, 1e3 * dense_build);
        report.metric("build_ms_sparse" + suffix, 1e3 * sparse_build);
        report.metric("build_speedup" + suffix,
                      dense_build / std::max(1e-9, sparse_build));
        report.metric("decode_shots_per_sec_dense" + suffix,
                      shots / std::max(1e-9, dense_decode));
        report.metric("decode_shots_per_sec_sparse" + suffix,
                      shots / std::max(1e-9, sparse_decode));
        report.metric("default_disagreements" + suffix,
                      static_cast<double>(default_disagree));
    }
    // ---- Burst syndromes: decode throughput vs fired-defect count ----
    // The regime Surf-Deformer's dynamic-defect scenarios produce:
    // cosmic-ray events fire large contiguous detector clusters. The
    // dense path pays the k x k matrix + O(k^3) blossom; the rows path
    // builds (memoized) bounded Dijkstra rows and solves the pruned
    // mirror instance; the matrix-free sparse blossom grows bounded
    // balls instead of rows; the default decoder dispatches between the
    // last two at the blossom threshold.
    const int dburst = static_cast<int>(flagValue(argc, argv, "dburst", 11));
    bool burst_weights_equal = true;
    {
        MemorySpec spec;
        spec.rounds = dburst;
        NoiseParams noise;
        noise.p = 2e-3;
        const BuiltCircuit built =
            buildMemoryCircuit(squarePatch(dburst), spec, noise);
        const auto dem = buildDem(built.circuit, PauliType::Z);
        const MwpmDecoder dense(dem, 1, nullptr, MatchingBackend::Dense);
        MwpmDecoder rows(dem, 1, nullptr, MatchingBackend::Sparse);
        rows.setBlossomThreshold(SIZE_MAX); // pin the rows path
        const MwpmDecoder deflt(dem, 1, nullptr, MatchingBackend::Sparse);
        const MwpmDecoder blossom(dem, 1, nullptr,
                                  MatchingBackend::SparseBlossom);
        std::printf("\nburst syndromes at d=%d (cluster-fired detectors; "
                    "dense-vs-default and dense-vs-blossom gates on every "
                    "shot; default dispatches at k >= %zu):\n",
                    dburst, deflt.blossomThreshold());
        std::printf("    k    dense sh/s     rows sh/s  default sh/s"
                    "  blossom sh/s   blossom vs rows\n");
        Rng rng(0xbadbeef);
        MwpmScratch sd, sr, sf, sb;
        for (const size_t kk : {8u, 16u, 32u, 48u, 64u, 96u, 128u}) {
            const size_t reps = std::max<size_t>(
                4, static_cast<size_t>(s * 4096 / kk));
            std::vector<std::vector<uint32_t>> bursts;
            bursts.reserve(reps);
            for (size_t r = 0; r < reps; ++r)
                bursts.push_back(
                    burstCluster(dem, dense.graph(), kk, rng));
            // One untimed pass per decoder first, so the rows it needs
            // are memoized and every column times warm decodes.
            for (const auto &b : bursts) {
                (void)dense.decode(b.data(), b.size(), sd);
                (void)rows.decode(b.data(), b.size(), sr);
                (void)deflt.decode(b.data(), b.size(), sf);
                (void)blossom.decode(b.data(), b.size(), sb);
            }
            auto t0 = std::chrono::steady_clock::now();
            for (const auto &b : bursts)
                (void)dense.decode(b.data(), b.size(), sd);
            const double t_dense = secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
            for (const auto &b : bursts)
                (void)rows.decode(b.data(), b.size(), sr);
            const double t_rows = secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
            for (const auto &b : bursts)
                (void)deflt.decode(b.data(), b.size(), sf);
            const double t_default = secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
            for (const auto &b : bursts)
                (void)blossom.decode(b.data(), b.size(), sb);
            const double t_blossom = secondsSince(t0);
            size_t weight_mismatch = 0, default_disagree = 0;
            for (const auto &b : bursts) {
                const bool dp = dense.decode(b.data(), b.size(), sd);
                (void)blossom.decode(b.data(), b.size(), sb);
                weight_mismatch += sd.lastWeight != sb.lastWeight;
                default_disagree += dp != deflt.decode(b.data(), b.size(),
                                                       sf) ||
                                    sd.lastWeight != sf.lastWeight;
            }
            if (weight_mismatch)
                burst_weights_equal = false;
            if (default_disagree)
                all_agree = false;
            const double sps_dense = reps / std::max(1e-9, t_dense);
            const double sps_rows = reps / std::max(1e-9, t_rows);
            const double sps_default = reps / std::max(1e-9, t_default);
            const double sps_blossom = reps / std::max(1e-9, t_blossom);
            std::printf("  %3zu  %10.0f    %10.0f    %10.0f    %10.0f"
                        "   %7.2fx%s%s\n",
                        kk, sps_dense, sps_rows, sps_default, sps_blossom,
                        sps_blossom / std::max(1e-9, sps_rows),
                        weight_mismatch ? "  WEIGHT MISMATCH (BUG)" : "",
                        default_disagree ? "  DEFAULT DISAGREES (BUG)" : "");
            const std::string suffix = "_k" + std::to_string(kk);
            report.metric("burst_shots_per_sec_dense" + suffix, sps_dense);
            report.metric("burst_shots_per_sec_rows" + suffix, sps_rows);
            report.metric("burst_shots_per_sec_default" + suffix,
                          sps_default);
            report.metric("burst_shots_per_sec_blossom" + suffix,
                          sps_blossom);
            report.metric("burst_blossom_vs_rows" + suffix,
                          sps_blossom / std::max(1e-9, sps_rows));
            report.metric("burst_weight_mismatches" + suffix,
                          static_cast<double>(weight_mismatch));
            report.metric("burst_default_disagreements" + suffix,
                          static_cast<double>(default_disagree));
        }

        // ---- Row pool: the rows decoder above memoized full-graph rows
        // for every defect the bursts touched.
        const double row_mib =
            static_cast<double>(rows.memoryBytes()) / (1 << 20);
        std::printf("\nrow pool after the burst load: %zu rows (%.1f MiB)\n",
                    rows.graph().rowsResident(), row_mib);
        report.metric("rows_resident",
                      static_cast<double>(rows.graph().rowsResident()));
        report.metric("row_mem_mib", row_mib);
    }

    const bool ok = all_agree && burst_weights_equal;
    report.metric("backends_agree", all_agree ? 1.0 : 0.0);
    report.metric("burst_weights_equal", burst_weights_equal ? 1.0 : 0.0);
    std::printf("\ndefault sparse decoder equals dense on every sampled "
                "and burst shot: %s\n",
                all_agree ? "yes" : "NO (BUG)");
    std::printf("sparse blossom weight-equal to dense on every burst "
                "shot: %s\n",
                burst_weights_equal ? "yes" : "NO (BUG)");
    return ok ? 0 : 1;
}
