#include "sim/dem.hh"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory_resource>
#include <unordered_map>

#include "util/logging.hh"

namespace surf {

namespace {

/** FNV-1a over the detector-id words of a flip set. */
struct FlipSetHash
{
    size_t
    operator()(const std::pmr::vector<uint32_t> &v) const
    {
        uint64_t h = 1469598103934665603ULL;
        for (uint32_t x : v) {
            h ^= x;
            h *= 1099511628211ULL;
        }
        return static_cast<size_t>(h);
    }
};

} // namespace

DetectorErrorModel
buildDem(const Circuit &circuit, PauliType obs_basis)
{
    DetectorErrorModel dem;
    const auto &instrs = circuit.instructions();

    // Map measurement index -> detectors/observables referencing it, and
    // record detector tags.
    std::vector<std::vector<uint32_t>> meas_to_dets(
        circuit.numMeasurements());
    std::vector<uint8_t> meas_flips_obs(circuit.numMeasurements(), 0);
    {
        uint32_t det_id = 0;
        for (const auto &ins : instrs) {
            if (ins.op == Op::Detector) {
                for (uint32_t m : ins.targets)
                    meas_to_dets[m].push_back(det_id);
                dem.detectorTag.push_back(static_cast<uint8_t>(ins.aux));
                ++det_id;
            } else if (ins.op == Op::ObservableInclude) {
                for (uint32_t m : ins.targets)
                    meas_flips_obs[m] ^= 1;
            }
        }
        dem.numDetectors = det_id;
    }

    // Accumulate components keyed by flipped detector set, one slot per
    // observable-flip value (hashed: this map sees every component of
    // every noise site, so it is the hottest structure of the build).
    // Its iteration order fixes the floating-point summation order of
    // the edges below, so two rules keep a fused circuit's DEM bit-
    // identical to that of the same circuit with one site per
    // instruction: (a) the backward pass folds a multi-site noise
    // instruction's sites in reverse, the order the one-site
    // instructions were met in, and (b) the table is sized by noise
    // sites, not instructions, so it gets the same bucket count.
    //
    // The order rule: do not change FlipSetHash, the reserve() size
    // below or the insertion sequence of the backward pass. Together they
    // fix libstdc++'s node order, hence the summation order of every
    // edge, and any change can move the DEM's last bits (the
    // CircuitLayout digests pin them). The allocator does not enter the
    // order: nodes, buckets and key vectors come from one monotonic arena
    // per build, released at once when the build returns.
    std::pmr::monotonic_buffer_resource arena;
    std::pmr::unordered_map<std::pmr::vector<uint32_t>, std::array<double, 2>,
                            FlipSetHash>
        merged(&arena);
    merged.reserve(4 * circuit.countNoiseSites() + 16);

    std::vector<size_t> meas_before(instrs.size() + 1, 0);
    for (size_t i = 0; i < instrs.size(); ++i) {
        meas_before[i + 1] = meas_before[i];
        if (instrs[i].op == Op::MeasureZ || instrs[i].op == Op::MeasureX)
            meas_before[i + 1] += instrs[i].targets.size();
    }

    // Backward sensitivity pass (the Stim approach): walk the circuit
    // once from the end, maintaining for every qubit the sorted set of
    // detectors an X (sx) or Z (sz) fault at the current position would
    // flip. A noise site then reads its generators' flip sets off in
    // O(set size) instead of propagating each one forward through the
    // rest of the circuit. The observable is carried inside the sets as
    // the sentinel id `obs_id` (sorting above every detector).
    const uint32_t obs_id = static_cast<uint32_t>(dem.numDetectors);
    std::vector<uint32_t> xor_tmp; // shared symmetric-difference scratch
    auto xorMerge = [&](std::vector<uint32_t> &acc,
                        const std::vector<uint32_t> &other) {
        xor_tmp.clear();
        std::set_symmetric_difference(acc.begin(), acc.end(), other.begin(),
                                      other.end(),
                                      std::back_inserter(xor_tmp));
        acc.swap(xor_tmp);
    };

    const uint32_t nq = circuit.numQubits();
    std::vector<std::vector<uint32_t>> sx(nq), sz(nq);
    // Flip sets of measurement m (detectors referencing it, plus obs).
    std::vector<std::vector<uint32_t>> meas_flips(circuit.numMeasurements());
    for (size_t m = 0; m < meas_flips.size(); ++m) {
        meas_flips[m] = {meas_to_dets[m].begin(), meas_to_dets[m].end()};
        if (meas_flips_obs[m])
            meas_flips[m].push_back(obs_id); // ids ascending: obs_id last
    }
    // Noise sites are folded into `merged` inline, right where the
    // backward pass has their sensitivity sets live in sx/sz — no
    // per-site snapshot copies. A component's flip set is built in
    // comp_dets with at most one symmetric difference: each site qubit's
    // X, Y = X xor Z and Z sets are formed once, and the components are
    // folded in the fixed X, Y, Z (DEPOLARIZE1) or (pa, pb) = 1..15
    // (DEPOLARIZE2) order, so `merged` sees the same insertion sequence.
    // Default-resource scratch; a new key copies it into the arena.
    std::pmr::vector<uint32_t> comp_dets;
    auto foldComponent = [&](double p) {
        bool obs_flip = false;
        if (!comp_dets.empty() && comp_dets.back() == obs_id) {
            obs_flip = true;
            comp_dets.pop_back();
        }
        if (comp_dets.empty() && !obs_flip)
            return;
        double &slot = merged[comp_dets][obs_flip ? 1 : 0];
        slot = slot + p - 2 * slot * p;
    };
    auto setTo = [&](const std::vector<uint32_t> &a) {
        comp_dets.assign(a.begin(), a.end());
    };
    auto setToXor = [&](auto &out,
                        const std::vector<uint32_t> &a,
                        const std::vector<uint32_t> &b) {
        out.clear();
        std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                      std::back_inserter(out));
    };
    std::array<std::vector<uint32_t>, 2> y_sets; // Y sets of a site's qubits
    auto foldNoiseSite = [&](Op op, double arg, const uint32_t *site) {
        const uint32_t q = site[0];
        switch (op) {
          case Op::XError:
            setTo(sx[q]);
            foldComponent(arg);
            break;
          case Op::ZError:
            setTo(sz[q]);
            foldComponent(arg);
            break;
          case Op::Depolarize1:
            setTo(sx[q]);
            foldComponent(arg / 3);
            setToXor(comp_dets, sx[q], sz[q]);
            foldComponent(arg / 3);
            setTo(sz[q]);
            foldComponent(arg / 3);
            break;
          case Op::Depolarize2: {
            // gen[k][P]: flip set of Pauli P (1 = X, 2 = Y, 3 = Z) on
            // site qubit k.
            const std::vector<uint32_t> *gen[2][4];
            for (int k = 0; k < 2; ++k) {
                const uint32_t qk = site[k];
                setToXor(y_sets[k], sx[qk], sz[qk]);
                gen[k][1] = &sx[qk];
                gen[k][2] = &y_sets[k];
                gen[k][3] = &sz[qk];
            }
            for (int which = 1; which < 16; ++which) {
                const int pa = which / 4, pb = which % 4;
                if (!pa)
                    setTo(*gen[1][pb]);
                else if (!pb)
                    setTo(*gen[0][pa]);
                else
                    setToXor(comp_dets, *gen[0][pa], *gen[1][pb]);
                foldComponent(arg / 15);
            }
            break;
          }
          default:
            break;
        }
    };

    for (size_t i = instrs.size(); i-- > 0;) {
        const auto &ins = instrs[i];
        switch (ins.op) {
          case Op::ResetZ:
          case Op::ResetX:
            // Faults before a reset are erased by it.
            for (uint32_t q : ins.targets) {
                sx[q].clear();
                sz[q].clear();
            }
            break;
          case Op::MeasureZ:
            for (size_t k = ins.targets.size(); k-- > 0;) {
                const uint32_t q = ins.targets[k];
                // An X before the measurement flips the record (and
                // survives it); a Z is destroyed by the collapse.
                xorMerge(sx[q], meas_flips[meas_before[i] + k]);
                sz[q].clear();
            }
            break;
          case Op::MeasureX:
            for (size_t k = ins.targets.size(); k-- > 0;) {
                const uint32_t q = ins.targets[k];
                xorMerge(sz[q], meas_flips[meas_before[i] + k]);
                sx[q].clear();
            }
            break;
          case Op::H:
            for (uint32_t q : ins.targets)
                std::swap(sx[q], sz[q]);
            break;
          case Op::CX:
            // Reverse of x_t ^= x_c; z_c ^= z_t: an X on the control
            // also acts as X on the target afterwards, a Z on the target
            // also as Z on the control.
            for (size_t p = ins.targets.size() / 2; p-- > 0;) {
                const uint32_t c = ins.targets[2 * p];
                const uint32_t t = ins.targets[2 * p + 1];
                xorMerge(sx[c], sx[t]);
                xorMerge(sz[t], sz[c]);
            }
            break;
          case Op::FrameProbe:
            // Observable-cancel probes fold the probed frame parity into
            // the observable: faults *before* the probe pick up obs_id
            // here and again at the readout, cancelling their logical
            // attribution (standalone segments use this to strip the
            // overlap replica of logical responsibility). Non-destructive:
            // nothing is cleared. Plain oracle probes are inert.
            if (ins.aux & 2u) {
                const std::vector<uint32_t> obs_ref{obs_id};
                for (uint32_t q : ins.targets)
                    xorMerge((ins.aux & 1u) ? sx[q] : sz[q], obs_ref);
            }
            break;
          default:
            // Detector flips are GF(2)-linear in single-Pauli
            // generators, so every component's flip set is the
            // symmetric difference of its generators' live sensitivity
            // sets.
            if (isNoiseOp(ins.op) && ins.arg > 0.0) {
                // Sites in reverse: a fused layer folds exactly like the
                // one-site instructions it replaces, walked backward.
                const size_t width = ins.op == Op::Depolarize2 ? 2 : 1;
                for (size_t k = ins.targets.size(); k >= width;) {
                    k -= width;
                    foldNoiseSite(ins.op, ins.arg, &ins.targets[k]);
                }
            }
            break; // detector/observable/tick: no effect on frames
        }
    }

    // Split each merged component by detector basis and emit graphlike
    // edges; hyperedges fall back to consecutive pairing. The edge
    // accumulator is hashed on a packed (a, b, obs) key; the final edge
    // list is sorted on that key, so the output order is independent of
    // hash iteration order.
    const uint8_t obs_tag = (obs_basis == PauliType::Z) ? 1 : 0;
    std::unordered_map<uint64_t, double> edge_acc[2];
    edge_acc[0].reserve(1024);
    edge_acc[1].reserve(1024);

    auto accumulate = [&](uint8_t tag, int a, int b, bool obs, double p) {
        if (a > b)
            std::swap(a, b);
        // a, b in [-1, numDetectors): +1 keeps them non-negative.
        const uint64_t key = (static_cast<uint64_t>(a + 1) << 33) |
                             (static_cast<uint64_t>(b + 1) << 1) |
                             (obs ? 1u : 0u);
        double &slot = edge_acc[tag][key];
        slot = slot + p - 2 * slot * p;
    };

    std::vector<uint32_t> side[2];
    for (const auto &[dets, probs] : merged) {
      for (int obs_case = 0; obs_case < 2; ++obs_case) {
        const double p = probs[obs_case];
        if (p <= 0.0)
            continue;
        const bool obs_flip = obs_case == 1;
        side[0].clear();
        side[1].clear();
        for (uint32_t d : dets)
            side[dem.detectorTag[d]].push_back(d);
        bool obs_assigned = false;
        for (int tag = 0; tag < 2; ++tag) {
            auto &ds = side[tag];
            if (ds.empty())
                continue;
            const bool carries_obs = obs_flip && tag == obs_tag;
            if (ds.size() <= 2) {
                const int a = static_cast<int>(ds[0]);
                const int b = ds.size() == 2 ? static_cast<int>(ds[1]) : -1;
                accumulate(static_cast<uint8_t>(tag), a, b, carries_obs, p);
            } else {
                // Hyperedge: pair consecutive detectors (construction
                // order is round-major, so consecutive ids are close).
                ++dem.decomposedComponents;
                for (size_t k = 0; k < ds.size(); k += 2) {
                    const int a = static_cast<int>(ds[k]);
                    const int b = (k + 1 < ds.size())
                                      ? static_cast<int>(ds[k + 1])
                                      : -1;
                    const bool last = k + 2 >= ds.size();
                    accumulate(static_cast<uint8_t>(tag), a, b,
                               carries_obs && last, p);
                }
            }
            obs_assigned |= carries_obs;
        }
        if (obs_flip && !obs_assigned)
            dem.undetectableObsProb = dem.undetectableObsProb + p -
                                      2 * dem.undetectableObsProb * p;
      }
    }

    std::vector<std::pair<uint64_t, double>> sorted_edges;
    for (int tag = 0; tag < 2; ++tag) {
        sorted_edges.assign(edge_acc[tag].begin(), edge_acc[tag].end());
        std::sort(sorted_edges.begin(), sorted_edges.end());
        dem.edges[tag].reserve(sorted_edges.size());
        for (const auto &[key, p] : sorted_edges) {
            const int a = static_cast<int>(key >> 33) - 1;
            const int b =
                static_cast<int>((key >> 1) & 0xFFFFFFFFull) - 1;
            dem.edges[tag].push_back({a, b, p, (key & 1) != 0});
        }
    }
    return dem;
}

} // namespace surf
