#include "sim/segment.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "pauli/bitmatrix.hh"
#include "util/logging.hh"

namespace surf {

namespace {

/**
 * Canonical CNOT layer slot of a support qubit within a plaquette check
 * (the standard zigzag schedule: X checks go NE,NW,SE,SW and Z checks go
 * NE,SE,NW,SW, which keeps the crossing parity between overlapping X/Z
 * checks even). Returns -1 for non-plaquette offsets.
 */
int
canonicalSlot(const Check &c, Coord q)
{
    if (!c.ancilla)
        return -1;
    const Coord o = q - *c.ancilla;
    static const Coord x_order[4] = {{1, -1}, {-1, -1}, {1, 1}, {-1, 1}};
    static const Coord z_order[4] = {{1, -1}, {1, 1}, {-1, -1}, {-1, 1}};
    const Coord *order = (c.type == PauliType::X) ? x_order : z_order;
    for (int k = 0; k < 4; ++k)
        if (order[k] == o)
            return k;
    return -1;
}

/**
 * True when every support qubit of the check sits on a distinct canonical
 * plaquette slot, so the check can join the interleaved layers. Merged or
 * long-range checks are measured in contiguous sequential blocks instead,
 * which is crossing-safe against every other check by construction.
 */
bool
isCanonical(const Check &c)
{
    if (!c.ancilla || c.support.size() > 4)
        return false;
    bool used[4] = {false, false, false, false};
    for (const Coord &q : c.support) {
        const int k = canonicalSlot(c, q);
        if (k < 0 || used[k])
            return false;
        used[k] = true;
    }
    return true;
}

/** Identity of a check across epochs: type plus anchor site. */
std::pair<PauliType, Coord>
checkKey(const Check &c)
{
    return {c.type, c.ancilla ? *c.ancilla : c.support[0]};
}

/** Canonical signature of a super-stabilizer: type + sorted member
 *  supports (the inferred operator, independent of member indexing). */
std::string
superSignature(const CodePatch &patch, const SuperStab &ss)
{
    std::vector<std::vector<Coord>> members;
    for (int m : ss.members)
        members.push_back(patch.checks()[static_cast<size_t>(m)].support);
    std::sort(members.begin(), members.end());
    std::string sig(1, ss.type == PauliType::Z ? 'Z' : 'X');
    for (const auto &sup : members) {
        sig += '|';
        for (const Coord &q : sup)
            sig += std::to_string(q.x) + ',' + std::to_string(q.y) + ';';
    }
    return sig;
}

/**
 * Dense view of the coordinate -> qubit id map for one appendSegment
 * call: a grid over the bounding box of the mapped coordinates, plus
 * each id's noise rate, so the per-gate lookups are array reads instead
 * of std::map / std::set searches.
 */
class QubitGrid
{
  public:
    QubitGrid(const std::map<Coord, uint32_t> &ids, const NoiseParams &noise)
    {
        SURF_ASSERT(!ids.empty(), "segment without qubits");
        x0_ = x1_ = ids.begin()->first.x;
        y0_ = y1_ = ids.begin()->first.y;
        for (const auto &[c, id] : ids) {
            x0_ = std::min(x0_, c.x);
            x1_ = std::max(x1_, c.x);
            y0_ = std::min(y0_, c.y);
            y1_ = std::max(y1_, c.y);
        }
        width_ = static_cast<size_t>(x1_ - x0_) + 1;
        grid_.assign(width_ * (static_cast<size_t>(y1_ - y0_) + 1), kNone);
        rate_.resize(ids.size());
        for (const auto &[c, id] : ids) {
            SURF_ASSERT(id < ids.size(), "qubit ids must be dense");
            grid_[cell(c)] = id;
            rate_[id] = noise.defectiveSites.count(c) ? noise.pDefect
                                                      : noise.p;
        }
    }

    uint32_t
    id(Coord c) const
    {
        const bool inside =
            c.x >= x0_ && c.x <= x1_ && c.y >= y0_ && c.y <= y1_;
        const uint32_t i = inside ? grid_[cell(c)] : kNone;
        SURF_ASSERT(i != kNone, "qubit without an id ", c.str());
        return i;
    }
    /** Noise rate of the qubit with this id. */
    double rate(uint32_t id) const { return rate_[id]; }
    size_t size() const { return rate_.size(); }

  private:
    static constexpr uint32_t kNone = ~0u;
    size_t
    cell(Coord c) const
    {
        return static_cast<size_t>(c.y - y0_) * width_ +
               static_cast<size_t>(c.x - x0_);
    }

    int x0_, x1_, y0_, y1_;
    size_t width_;
    std::vector<uint32_t> grid_;
    std::vector<double> rate_;
};

/**
 * Fused-layer emitter. A *unit* is a gate with its trailing noise
 * (CX + DEPOLARIZE2 [+ the correlated DEPOLARIZE2], H + DEPOLARIZE1,
 * R/RX + X_ERROR/Z_ERROR) or a noise channel with the measurement it
 * precedes (X_ERROR + M, Z_ERROR + MX). A unit joins the open layer
 * while its kind matches and its qubits are disjoint from the layer's;
 * otherwise the layer is flushed first. A flush emits every unit's lead
 * part in unit order, then every trailing part in unit order, and
 * Circuit::append merges same-op, same-arg neighbours into one
 * instruction.
 *
 * Why the samples cannot change: the units of a layer act on disjoint
 * qubits, so moving unit i's trailing part past the lead parts of units
 * j > i commutes. Noise instructions keep their relative order, and so
 * do measurements, so the noise RNG draws one value per site in the
 * same sequence and every record keeps its index. (Sequential checks
 * share their ancilla across units; the disjointness test flushes
 * between them, nothing here assumes a schedule.)
 */
class LayerBuffer
{
  public:
    enum class Kind : uint8_t { GateNoise, NoiseMeasure };
    /** One op on one or two targets. */
    struct Part
    {
        Op op;
        double arg;
        uint32_t t[2];
        uint8_t n;
    };

    LayerBuffer(Circuit &ckt, size_t num_qubits)
        : ckt_(ckt), busy_(num_qubits, 0)
    {
    }

    /** Queue a unit: `lead` then its trailing parts, on lead's qubits.
     *  @return the index its measurement will get (NoiseMeasure), else 0 */
    size_t
    unit(Kind kind, const Part &lead, std::initializer_list<Part> trail)
    {
        bool clash = kind != kind_;
        for (uint8_t k = 0; k < lead.n; ++k)
            clash |= busy_[lead.t[k]] == layer_;
        if (clash) {
            flush();
            kind_ = kind;
        }
        for (uint8_t k = 0; k < lead.n; ++k)
            busy_[lead.t[k]] = layer_;
        lead_.push_back(lead);
        trail_.insert(trail_.end(), trail.begin(), trail.end());
        if (kind != Kind::NoiseMeasure)
            return 0;
        return ckt_.numMeasurements() + pending_meas_++;
    }

    /** Emit the open layer; call before anything else touches ckt. */
    void
    flush()
    {
        for (const Part &part : lead_)
            ckt_.append(part.op, std::span(part.t, part.n), part.arg);
        for (const Part &part : trail_)
            ckt_.append(part.op, std::span(part.t, part.n), part.arg);
        lead_.clear();
        trail_.clear();
        pending_meas_ = 0;
        ++layer_;
    }

  private:
    Circuit &ckt_;
    std::vector<uint32_t> busy_; ///< per qubit: layer that last used it
    uint32_t layer_ = 1;
    Kind kind_ = Kind::GateNoise;
    std::vector<Part> lead_, trail_;
    size_t pending_meas_ = 0;
};

} // namespace

SeamPlan
computeSeamPlan(const CodePatch *prev, const CodePatch &cur, PauliType basis,
                const std::set<Coord> &untrusted, uint64_t seamRound,
                const std::vector<Coord> *prevTracked)
{
    SeamPlan plan;
    const auto &checks = cur.checks();
    plan.links.assign(checks.size(), SeamLink::Fresh);
    plan.prevCheck.assign(checks.size(), -1);
    plan.removedRefs.assign(checks.size(), {});
    plan.prevSuper.assign(cur.supers().size(), -1);
    plan.trackedLogical =
        (basis == PauliType::Z) ? cur.logicalZ() : cur.logicalX();
    if (!prev)
        return plan;
    plan.continuation = true;

    std::set_difference(prev->dataQubits().begin(), prev->dataQubits().end(),
                        cur.dataQubits().begin(), cur.dataQubits().end(),
                        std::back_inserter(plan.removed));
    std::set_difference(cur.dataQubits().begin(), cur.dataQubits().end(),
                        prev->dataQubits().begin(), prev->dataQubits().end(),
                        std::back_inserter(plan.added));
    const std::set<Coord> added_set(plan.added.begin(), plan.added.end());
    std::set<Coord> removed_trusted(plan.removed.begin(), plan.removed.end());
    for (const Coord &q : untrusted)
        removed_trusted.erase(q);

    std::map<std::pair<PauliType, Coord>, int> prev_by_key;
    for (size_t j = 0; j < prev->checks().size(); ++j)
        prev_by_key.emplace(checkKey(prev->checks()[j]), static_cast<int>(j));

    auto subset_of = [](const std::vector<Coord> &sub,
                        const std::set<Coord> &sup) {
        for (const Coord &q : sub)
            if (!sup.count(q))
                return false;
        return true;
    };

    // A previous gauge check's value is carried only when it was measured
    // in the round right before the seam: the last pre-seam round has
    // parity (seamRound - 1) % 2, and a gauge of phase p is measured
    // exactly on rounds of parity p. If the parities disagree, opposite
    // gauges have been measured since its last instance and its value is
    // randomized. Stabilizer-role references are always fresh (measured
    // every round, conserved through everything measured).
    SURF_ASSERT(seamRound >= 1, "continuation seam cannot start at round 0");
    auto prev_ref_fresh = [&](const Check &p) {
        if (p.role == CheckRole::Stabilizer)
            return true;
        const int phase = (p.type == basis) ? 0 : 1;
        return static_cast<int>((seamRound - 1) % 2) == phase;
    };

    for (size_t i = 0; i < checks.size(); ++i) {
        const Check &c = checks[i];
        // Only stabilizer-role checks qualify as deterministic-fresh at a
        // seam: a fresh basis gauge measured after the opposite gauges of
        // an odd-parity round would already be randomized. (Stabilizers
        // commute with every measured operator, so they are always safe.)
        auto fresh_link = [&] {
            return (c.type == basis && c.role == CheckRole::Stabilizer &&
                    subset_of(c.support, added_set))
                       ? SeamLink::FreshDeterministic
                       : SeamLink::Fresh;
        };
        const auto it = prev_by_key.find(checkKey(c));
        if (it == prev_by_key.end()) {
            plan.links[i] = fresh_link();
            continue;
        }
        const Check &p = prev->checks()[static_cast<size_t>(it->second)];
        if (!prev_ref_fresh(p)) {
            plan.links[i] = fresh_link();
            continue;
        }
        if (p.support == c.support) {
            plan.links[i] = SeamLink::Carried;
            plan.prevCheck[i] = it->second;
            continue;
        }
        // Support changed. Only a basis-type stabilizer can be patched: the
        // lost qubits' basis measure-outs and the gained qubits' basis
        // initializations relate the old and new inferred values. Gauge
        // checks never receive individual pair detectors, so re-shaped
        // gauges simply start fresh (their products re-form via supers).
        if (c.type != basis || c.role != CheckRole::Stabilizer) {
            plan.links[i] = fresh_link();
            continue;
        }
        std::vector<Coord> lost, gained;
        std::set_difference(p.support.begin(), p.support.end(),
                            c.support.begin(), c.support.end(),
                            std::back_inserter(lost));
        std::set_difference(c.support.begin(), c.support.end(),
                            p.support.begin(), p.support.end(),
                            std::back_inserter(gained));
        const bool lost_ok = subset_of(lost, removed_trusted);
        if (lost_ok && subset_of(gained, added_set)) {
            plan.links[i] = SeamLink::CarriedPatched;
            plan.prevCheck[i] = it->second;
            plan.removedRefs[i] = std::move(lost);
        } else {
            plan.links[i] = fresh_link();
        }
    }

    // Super-stabilizer carry is parity-conditional: the previous instance
    // must have been measured in the round right before the seam, so both
    // the concatenated and the standalone (one-round-overlap) builds are
    // guaranteed to hold its member records.
    std::map<std::string, int> prev_supers;
    for (size_t s = 0; s < prev->supers().size(); ++s)
        prev_supers.emplace(superSignature(*prev, prev->supers()[s]),
                            static_cast<int>(s));
    for (size_t s = 0; s < cur.supers().size(); ++s) {
        const SuperStab &ss = cur.supers()[s];
        const int phase = (ss.type == basis) ? 0 : 1;
        if (static_cast<int>((seamRound - 1) % 2) != phase)
            continue;
        const auto it = prev_supers.find(superSignature(cur, ss));
        if (it != prev_supers.end())
            plan.prevSuper[s] = it->second;
    }

    // --- Observable continuity --------------------------------------------
    // Decompose (old tracked representative) x (new representative) over
    // operators with known measured values; their records become the
    // logical frame update the seam applies to the observable.
    const std::vector<Coord> &l_old =
        (prevTracked && !prevTracked->empty())
            ? *prevTracked
            : ((basis == PauliType::Z) ? prev->logicalZ() : prev->logicalX());
    if (supportXor(l_old, plan.trackedLogical).empty())
        return plan; // value carries over directly, no frame update

    // Column space: every data qubit either side of the seam.
    std::map<Coord, size_t> col_of;
    for (const Coord &q : prev->dataQubits())
        col_of.emplace(q, col_of.size());
    for (const Coord &q : cur.dataQubits())
        col_of.emplace(q, col_of.size());
    auto rowFor = [&](const std::vector<Coord> &support) {
        BitVec row(col_of.size());
        for (const Coord &q : support)
            row.set(col_of.at(q), true);
        return row;
    };

    // Row tags mirror the matrix rows so the solved combination maps back
    // to measurement records.
    enum class RowKind : uint8_t { Check, Super, Removed, Added, CurGauge };
    std::vector<std::pair<RowKind, int>> tags;
    BitMatrix basis_rows(col_of.size());
    const auto prev_gens = prev->stabilizerGenerators();
    for (size_t g = 0; g < prev_gens.size(); ++g) {
        if (prev_gens[g].type != basis)
            continue;
        if (prev_gens[g].isSuper) {
            // Super records are only guaranteed at matching seam parity
            // (see the carry condition above).
            if (static_cast<int>((seamRound - 1) % 2) != 0)
                continue;
            basis_rows.addRow(rowFor(prev_gens[g].support));
            tags.emplace_back(RowKind::Super, prev_gens[g].sourceSuper);
        } else {
            basis_rows.addRow(rowFor(prev_gens[g].support));
            tags.emplace_back(RowKind::Check, prev_gens[g].sourceCheck);
        }
    }
    // Value-fresh basis-type gauge checks extend the span (their last
    // record is the seam value when the parity test passes).
    for (size_t j = 0; j < prev->checks().size(); ++j) {
        const Check &p = prev->checks()[j];
        if (p.role != CheckRole::Gauge || p.type != basis ||
            !prev_ref_fresh(p))
            continue;
        basis_rows.addRow(rowFor(p.support));
        tags.emplace_back(RowKind::Check, static_cast<int>(j));
    }
    // Only trustworthy measure-outs may carry the logical frame: a
    // defective qubit's readout is junk (the same reason seam detectors
    // refuse it), and routing the observable through it would inject a
    // coin flip into every shot.
    for (size_t ri = 0; ri < plan.removed.size(); ++ri) {
        if (!removed_trusted.count(plan.removed[ri]))
            continue;
        basis_rows.addRow(rowFor({plan.removed[ri]}));
        tags.emplace_back(RowKind::Removed, static_cast<int>(ri));
    }
    for (const Coord &q : plan.added) {
        basis_rows.addRow(rowFor({q}));
        tags.emplace_back(RowKind::Added, 0);
    }
    // Basis-type checks of the *new* patch measured in its first round: a
    // representative whose relation to the old one is not fixed by
    // pre-seam records alone (rerouted through re-added corners, or
    // through a fresh super-stabilizer cluster) becomes definite once
    // those first measurements exist, and their records complete the
    // frame update. Stabilizer-role checks commute with everything, so
    // their first record is usable at either seam parity; basis gauges
    // only when they are measured before the anticommuting opposite
    // gauges (even seam parity).
    for (size_t j = 0; j < checks.size(); ++j) {
        const Check &c = checks[j];
        if (c.type != basis)
            continue;
        if (c.role == CheckRole::Gauge && static_cast<int>(seamRound % 2) != 0)
            continue;
        basis_rows.addRow(rowFor(c.support));
        tags.emplace_back(RowKind::CurGauge, static_cast<int>(j));
    }

    // Find a *continuation*: any product R = l_old x (selected rows) whose
    // support lies inside the new patch and which commutes with every
    // measured operator of the new code. Because each row carries a known
    // measured value, R is homologous to the tracked logical — never to a
    // hole logical the deformation may have created (those are outside the
    // record span). Constraints are linear in the row selection x:
    //   for q outside cur data:        sum_i x_i S_i[q]        = l_old[q]
    //   for each opposite-type check:  sum_i x_i <S_i, c>      = <l_old, c>
    // where <.,.> is the overlap parity. The stored (minimum-weight)
    // representative is one candidate solution; when it belongs to a
    // different logical qubit the solver routes around it automatically.
    // Prefer the stored representative: when the difference to l_old is in
    // the record span directly, track the canonical minimum-weight rep.
    // (Recovered pristine epochs then all track the same rep, which keeps
    // their decode segments cache-equal across timelines.)
    auto fill_from = [&](const BitVec &combo) {
        for (size_t r = 0; r < tags.size(); ++r) {
            if (!combo.get(r))
                continue;
            switch (tags[r].first) {
              case RowKind::Check:
                plan.obsPrevChecks.push_back(tags[r].second);
                break;
              case RowKind::Super:
                plan.obsPrevSupers.push_back(tags[r].second);
                break;
              case RowKind::Removed:
                plan.obsRemoved.push_back(
                    plan.removed[static_cast<size_t>(tags[r].second)]);
                break;
              case RowKind::Added:
                break; // freshly initialized: deterministic +1, no record
              case RowKind::CurGauge:
                plan.obsCurChecks.push_back(tags[r].second);
                break;
            }
        }
    };
    if (const auto direct = basis_rows.solveCombination(
            rowFor(supportXor(l_old, plan.trackedLogical)))) {
        fill_from(*direct);
        return plan;
    }

    const BitVec l_old_row = rowFor(l_old);
    BitMatrix constraints(tags.size());
    std::vector<uint8_t> rhs_bits;
    // Overlap parity via word-wise AND + popcount (the per-bit version
    // made this O(constraints x rows x cols) scalar bit reads).
    auto overlap_parity = [](const BitVec &a, const BitVec &b) {
        uint64_t acc = 0;
        for (size_t w = 0; w < a.wordCount(); ++w)
            acc ^= a.word(w) & b.word(w);
        return (std::popcount(acc) & 1) != 0;
    };
    auto addConstraint = [&](const BitVec &functional_support) {
        BitVec row(tags.size());
        for (size_t i = 0; i < tags.size(); ++i)
            row.set(i, overlap_parity(basis_rows.row(i),
                                      functional_support));
        constraints.addRow(row);
        rhs_bits.push_back(static_cast<uint8_t>(
            overlap_parity(l_old_row, functional_support)));
    };
    for (const auto &[q, w] : col_of) {
        if (cur.hasData(q))
            continue;
        BitVec single(col_of.size());
        single.set(w, true);
        addConstraint(single);
    }
    for (const Check &c : checks)
        if (c.type != basis)
            addConstraint(rowFor(c.support));

    BitVec rhs(rhs_bits.size());
    for (size_t i = 0; i < rhs_bits.size(); ++i)
        rhs.set(i, rhs_bits[i] != 0);
    const auto solution = constraints.solveSystem(rhs);
    if (!solution) {
        // No continuation with a known frame update exists: the burst
        // effectively destroyed (measured) the stored logical qubit.
        plan.obsCarryValid = false;
        return plan;
    }

    BitVec tracked_row = l_old_row;
    for (size_t r = 0; r < tags.size(); ++r)
        if (solution->get(r))
            tracked_row ^= basis_rows.row(r);
    fill_from(*solution);
    plan.trackedLogical.clear();
    for (const auto &[q, w] : col_of)
        if (tracked_row.get(w)) {
            SURF_ASSERT(cur.hasData(q), "continuation left the patch");
            plan.trackedLogical.push_back(q);
        }
    return plan;
}

SegmentResult
appendSegment(Circuit &ckt, std::map<Coord, uint32_t> &qubitId,
              const CodePatch &patch, const SegmentSpec &spec,
              const NoiseParams &noise, const SeamPlan &seam,
              const SeamState *carried, bool phantomSeam,
              const CodePatch *prevPatch)
{
    SURF_ASSERT(spec.rounds >= 1, "need at least one round");
    SURF_ASSERT(spec.first != seam.continuation,
                "first segments have no seam; continuations need one");
    SegmentResult out;

    const auto data = patch.dataList();
    const auto &checks = patch.checks();
    SURF_ASSERT(seam.links.size() == checks.size() &&
                    seam.prevSuper.size() == patch.supers().size(),
                "seam plan does not match the patch");

    // Qubit ids: this epoch's data first (sorted), then distinct ancillas
    // in check order, then seam measure-outs. In the concatenated circuit
    // most of these already exist and keep their ids.
    auto ensureId = [&](Coord c) {
        auto it = qubitId.find(c);
        if (it == qubitId.end())
            it = qubitId.emplace(c, static_cast<uint32_t>(qubitId.size()))
                     .first;
        return it->second;
    };
    for (const Coord &q : data)
        ensureId(q);
    for (const auto &c : checks)
        if (c.ancilla)
            ensureId(*c.ancilla);
    for (const Coord &q : seam.removed)
        ensureId(q);
    // Standalone continuations also replay one round of the previous
    // patch (see the seam prologue).
    const bool overlap_replica = !spec.first && phantomSeam;
    if (overlap_replica) {
        SURF_ASSERT(prevPatch != nullptr,
                    "standalone continuation needs the previous patch");
        for (const Coord &q : prevPatch->dataQubits())
            ensureId(q);
        for (const auto &c : prevPatch->checks())
            if (c.ancilla)
                ensureId(*c.ancilla);
    }

    const QubitGrid grid(qubitId, noise);
    auto qid = [&](Coord c) { return grid.id(c); };
    auto rate = [&](Coord site) { return grid.rate(grid.id(site)); };
    auto rate2 = [&](Coord a, Coord b) { return std::max(rate(a), rate(b)); };

    // Everything that is not a fused unit goes through emit(), which
    // closes the open layer first.
    using Kind = LayerBuffer::Kind;
    using Part = LayerBuffer::Part;
    LayerBuffer layer(ckt, grid.size());
    auto emit = [&]() -> Circuit & {
        layer.flush();
        return ckt;
    };
    /** Noise channel + measurement of one qubit; returns its record. */
    auto noisy_measure = [&](Op noise_op, Op measure_op, Coord q) {
        const uint32_t id = qid(q);
        return layer.unit(Kind::NoiseMeasure,
                          Part{noise_op, rate(q), {id, 0}, 1},
                          {Part{measure_op, 0.0, {id, 0}, 1}});
    };
    /** Single-qubit gate + its noise channel. */
    auto noisy_gate = [&](Op gate_op, Op noise_op, Coord q) {
        const uint32_t id = qid(q);
        layer.unit(Kind::GateNoise, Part{gate_op, 0.0, {id, 0}, 1},
                   {Part{noise_op, rate(q), {id, 0}, 1}});
    };

    // Effective measurement phase follows the *global* round parity so the
    // alternating gauge schedule continues seamlessly across epochs.
    auto gauge_phase = [&](const Check &c) {
        return (c.type == spec.basis) ? 0 : 1;
    };
    auto measured_in_round = [&](const Check &c, uint64_t gr) {
        if (c.role == CheckRole::Stabilizer)
            return true;
        return static_cast<int>(gr % 2) == gauge_phase(c);
    };

    const Op basis_reset =
        spec.basis == PauliType::Z ? Op::ResetZ : Op::ResetX;
    const Op basis_init_error =
        spec.basis == PauliType::Z ? Op::XError : Op::ZError;
    const Op basis_measure =
        spec.basis == PauliType::Z ? Op::MeasureZ : Op::MeasureX;

    std::vector<size_t> last_meas(checks.size(), SIZE_MAX);
    std::vector<std::vector<uint32_t>> super_prev(patch.supers().size());
    std::vector<std::vector<uint32_t>> seam_extra(checks.size());
    /** First in-segment measurement per check (for gauge-fixing records). */
    std::vector<size_t> first_meas(checks.size(), SIZE_MAX);
    std::vector<uint32_t> obs_carry_refs;

    auto emit_cx = [&](const Check &c, Coord dqc) {
        const Coord a = *c.ancilla;
        const uint32_t ia = qid(a), id = qid(dqc);
        const Part cx = c.type == PauliType::X ? Part{Op::CX, 0.0, {ia, id}, 2}
                                               : Part{Op::CX, 0.0, {id, ia}, 2};
        const Part dep{Op::Depolarize2, rate2(a, dqc), {ia, id}, 2};
        if (noise.pCorrelated2q > 0.0)
            layer.unit(Kind::GateNoise, cx,
                       {dep, Part{Op::Depolarize2, noise.pCorrelated2q,
                                  {ia, id}, 2}});
        else
            layer.unit(Kind::GateNoise, cx, {dep});
    };

    /**
     * One full noisy syndrome-extraction round over an arbitrary patch
     * (the main epoch rounds, and the standalone decoder's one-round
     * overlap replica of the previous patch). Emits no detectors; fills
     * `lm` (and optionally `fm`) with the measurement records.
     */
    auto emit_round = [&](const std::vector<Coord> &round_data,
                          const std::vector<Check> &round_checks,
                          uint64_t gr, std::vector<size_t> &lm,
                          std::vector<size_t> *fm) {
        emit().append(Op::Tick, {});
        // Data idle noise once per round.
        for (const Coord &q : round_data)
            emit().append(Op::Depolarize1, {qid(q)}, rate(q));

        // Checks measured this round, split by measurement style.
        std::vector<int> ancilla_checks, direct_checks;
        for (size_t i = 0; i < round_checks.size(); ++i) {
            if (!measured_in_round(round_checks[i], gr))
                continue;
            (round_checks[i].ancilla ? ancilla_checks : direct_checks)
                .push_back(static_cast<int>(i));
        }

        // Ancilla-based extraction.
        for (int i : ancilla_checks)
            noisy_gate(Op::ResetZ, Op::XError,
                       *round_checks[static_cast<size_t>(i)].ancilla);
        for (int i : ancilla_checks) {
            const auto &c = round_checks[static_cast<size_t>(i)];
            if (c.type == PauliType::X)
                noisy_gate(Op::H, Op::Depolarize1, *c.ancilla);
        }
        // Interleaved canonical layers: each support qubit occupies its
        // canonical slot (gaps where neighbors were removed keep the
        // crossing parity with overlapping opposite-type checks even).
        std::vector<int> sequential_checks;
        for (int layer = 0; layer < 4; ++layer) {
            for (int i : ancilla_checks) {
                const auto &c = round_checks[static_cast<size_t>(i)];
                if (!isCanonical(c)) {
                    if (layer == 0)
                        sequential_checks.push_back(i);
                    continue;
                }
                for (const Coord &dqc : c.support)
                    if (canonicalSlot(c, dqc) == layer)
                        emit_cx(c, dqc);
            }
        }
        // Contiguous blocks for non-canonical (merged / long-range) checks.
        for (int i : sequential_checks) {
            const auto &c = round_checks[static_cast<size_t>(i)];
            std::vector<Coord> order = c.support;
            std::sort(order.begin(), order.end(), [](Coord p, Coord q) {
                return std::pair(p.y, p.x) < std::pair(q.y, q.x);
            });
            for (const Coord &dqc : order)
                emit_cx(c, dqc);
        }
        for (int i : ancilla_checks) {
            const auto &c = round_checks[static_cast<size_t>(i)];
            if (c.type == PauliType::X)
                noisy_gate(Op::H, Op::Depolarize1, *c.ancilla);
        }
        for (int i : ancilla_checks) {
            const Coord a = *round_checks[static_cast<size_t>(i)].ancilla;
            lm[static_cast<size_t>(i)] =
                noisy_measure(Op::XError, Op::MeasureZ, a);
            if (fm && (*fm)[static_cast<size_t>(i)] == SIZE_MAX)
                (*fm)[static_cast<size_t>(i)] = lm[static_cast<size_t>(i)];
        }
        // Direct single-qubit gauge measurements (non-destructive
        // projective measurement of a data qubit).
        for (int i : direct_checks) {
            const auto &c = round_checks[static_cast<size_t>(i)];
            SURF_ASSERT(c.support.size() == 1,
                        "direct measurement needs weight-1 support");
            const Coord q = c.support[0];
            lm[static_cast<size_t>(i)] =
                c.type == PauliType::X
                    ? noisy_measure(Op::ZError, Op::MeasureX, q)
                    : noisy_measure(Op::XError, Op::MeasureZ, q);
            if (fm && (*fm)[static_cast<size_t>(i)] == SIZE_MAX)
                (*fm)[static_cast<size_t>(i)] = lm[static_cast<size_t>(i)];
        }
    };

    if (spec.first) {
        // --- Initialization -----------------------------------------------
        std::vector<uint32_t> dq;
        for (const Coord &q : data)
            dq.push_back(qid(q));
        emit().append(basis_reset, dq);
        for (const Coord &q : data)
            emit().append(basis_init_error, {qid(q)}, rate(q));
    } else {
        // --- Seam prologue ------------------------------------------------
        // Carried inferences: real references into the previous segment,
        // or — in the standalone decoder view — references into a noisy
        // one-round *overlap replica* of the previous patch. The replica
        // emits no detectors, so the detector range still mirrors the
        // concatenated segment, but it gives the DEM exactly the
        // mechanisms that straddle the seam (final-round measurement and
        // data errors of the previous epoch), which is what makes
        // windowed per-epoch decoding accurate at seams.
        SeamState overlap_state;
        if (overlap_replica) {
            overlap_state.lastMeas.assign(prevPatch->checks().size(),
                                          SIZE_MAX);
            emit_round(prevPatch->dataList(), prevPatch->checks(),
                       spec.startRound - 1, overlap_state.lastMeas, nullptr);
            overlap_state.superPrev.resize(prevPatch->supers().size());
            for (size_t s = 0; s < prevPatch->supers().size(); ++s) {
                const SuperStab &ss = prevPatch->supers()[s];
                const int phase = (ss.type == spec.basis) ? 0 : 1;
                if (static_cast<int>((spec.startRound - 1) % 2) != phase)
                    continue;
                for (int m : ss.members)
                    overlap_state.superPrev[s].push_back(
                        static_cast<uint32_t>(
                            overlap_state.lastMeas[static_cast<size_t>(m)]));
            }
            // Strip the replica of logical responsibility: frames it
            // leaves on the tracked representative cancel out of the
            // observable (the previous epoch's decoder owns them), while
            // its detector mechanisms stay — that is the commit rule of
            // overlapped windowed decoding.
            std::vector<uint32_t> probe_ids;
            for (const Coord &q : seam.trackedLogical)
                probe_ids.push_back(qid(q));
            emit().appendFrameProbe(probe_ids, spec.basis,
                                    /*observable_cancel=*/true);
            carried = &overlap_state;
        }
        SURF_ASSERT(carried != nullptr,
                    "continuation segment needs carried references");
        for (size_t i = 0; i < checks.size(); ++i) {
            if (seam.links[i] != SeamLink::Carried &&
                seam.links[i] != SeamLink::CarriedPatched)
                continue;
            const size_t ref =
                carried->lastMeas[static_cast<size_t>(seam.prevCheck[i])];
            if (ref != SIZE_MAX)
                last_meas[i] = ref;
        }
        for (size_t s = 0; s < patch.supers().size(); ++s)
            if (seam.prevSuper[s] >= 0)
                super_prev[s] = carried->superPrev[static_cast<size_t>(
                    seam.prevSuper[s])];
        // Measure out the data qubits leaving the patch (memory basis).
        std::map<Coord, uint32_t> removed_meas;
        for (const Coord &q : seam.removed)
            removed_meas[q] = static_cast<uint32_t>(
                noisy_measure(basis_init_error, basis_measure, q));
        // Initialize the data qubits joining the patch.
        if (!seam.added.empty()) {
            std::vector<uint32_t> dq;
            for (const Coord &q : seam.added)
                dq.push_back(qid(q));
            emit().append(basis_reset, dq);
            for (const Coord &q : seam.added)
                emit().append(basis_init_error, {qid(q)}, rate(q));
        }
        // Patched seam detectors additionally reference the measure-outs
        // of the support qubits they lost.
        for (size_t i = 0; i < checks.size(); ++i)
            for (const Coord &q : seam.removedRefs[i])
                seam_extra[i].push_back(removed_meas.at(q));

        // Logical frame update: when the representative changes across the
        // seam, the relating operators' records shift the readout parity
        // (see SeamPlan). Without this the observable is not deterministic
        // and frame sampling would be invalid. Pre-seam and measure-out
        // records are collected here; first-round gauge records join after
        // the round loop and the include is emitted then.
        SURF_ASSERT(seam.obsCarryValid,
                    "logical continuity broke across a deformation seam");
        for (int j : seam.obsPrevChecks) {
            const size_t ref = carried->lastMeas[static_cast<size_t>(j)];
            SURF_ASSERT(ref != SIZE_MAX,
                        "observable carry needs a measured record");
            obs_carry_refs.push_back(static_cast<uint32_t>(ref));
        }
        for (int s : seam.obsPrevSupers) {
            const auto &refs = carried->superPrev[static_cast<size_t>(s)];
            SURF_ASSERT(!refs.empty(),
                        "observable carry references an unmeasured "
                        "super-stabilizer");
            obs_carry_refs.insert(obs_carry_refs.end(), refs.begin(),
                                  refs.end());
        }
        for (const Coord &q : seam.obsRemoved)
            obs_carry_refs.push_back(removed_meas.at(q));

        if (spec.epochProbes && !phantomSeam) {
            // Epoch-opening oracle probe (see SegmentSpec::epochProbes).
            std::vector<uint32_t> probe_ids;
            for (const Coord &q : seam.trackedLogical)
                probe_ids.push_back(qid(q));
            emit().appendFrameProbe(probe_ids, spec.basis);
        }
    }

    out.detBegin = emit().numDetectors();

    // A check's first measurement in this segment is individually
    // deterministic when all its support was just initialized in the basis.
    auto first_deterministic = [&](size_t i, int r) {
        if (spec.first)
            return r == 0 && checks[i].type == spec.basis;
        return seam.links[i] == SeamLink::FreshDeterministic;
    };

    for (int r = 0; r < spec.rounds; ++r) {
        const uint64_t gr = spec.startRound + static_cast<uint64_t>(r);
        // Previous measurement indices (for time-pair detectors); at r == 0
        // of a continuation these are the carried seam references.
        const std::vector<size_t> prev_meas = last_meas;
        emit_round(data, checks, gr, last_meas, &first_meas);

        // --- Detectors for this round ---
        // Stabilizer checks: time-pair against the previous inference (the
        // carried seam reference at r == 0 of a continuation), with the
        // seam measure-out records XORed into a patched first pair.
        for (size_t i = 0; i < checks.size(); ++i) {
            const auto &c = checks[i];
            if (!measured_in_round(c, gr))
                continue;
            const uint32_t m = static_cast<uint32_t>(last_meas[i]);
            if (c.role == CheckRole::Stabilizer) {
                if (prev_meas[i] == SIZE_MAX) {
                    if (first_deterministic(i, r))
                        emit().appendDetector({m}, c.type);
                } else {
                    std::vector<uint32_t> refs{
                        m, static_cast<uint32_t>(prev_meas[i])};
                    for (uint32_t x : seam_extra[i])
                        refs.push_back(x);
                    seam_extra[i].clear();
                    emit().appendDetector(refs, c.type);
                }
            } else if (prev_meas[i] == SIZE_MAX && first_deterministic(i, r)) {
                // Basis-type gauge checks are individually deterministic
                // on a freshly initialized product state.
                emit().appendDetector({m}, c.type);
            }
        }
        // Super-stabilizers available this round: product vs product (the
        // previous product may be the carried pre-seam instance).
        for (size_t s = 0; s < patch.supers().size(); ++s) {
            const auto &ss = patch.supers()[s];
            const int phase = (ss.type == spec.basis) ? 0 : 1;
            if (static_cast<int>(gr % 2) != phase)
                continue;
            std::vector<uint32_t> refs;
            for (int m : ss.members)
                refs.push_back(
                    static_cast<uint32_t>(last_meas[static_cast<size_t>(m)]));
            if (!super_prev[s].empty()) {
                std::vector<uint32_t> both = refs;
                both.insert(both.end(), super_prev[s].begin(),
                            super_prev[s].end());
                emit().appendDetector(both, ss.type);
            }
            // First basis-type instance is covered by the individual
            // round-0 gauge detectors; first opposite instance is random.
            super_prev[s] = std::move(refs);
        }
    }

    // Emit the seam's logical frame update, completed by the first-round
    // gauge-fixing records (instruction position is irrelevant — the
    // observable is bookkeeping over records — but every reference must
    // exist by now).
    if (!obs_carry_refs.empty() || !seam.obsCurChecks.empty()) {
        for (int j : seam.obsCurChecks) {
            const size_t ref = first_meas[static_cast<size_t>(j)];
            SURF_ASSERT(ref != SIZE_MAX,
                        "gauge-fixing record missing for observable carry");
            obs_carry_refs.push_back(static_cast<uint32_t>(ref));
        }
        emit().appendObservable(0, obs_carry_refs);
        obs_carry_refs.clear();
    }

    if (spec.epochProbes && !phantomSeam) {
        // Epoch-closing oracle probe, before any readout noise.
        std::vector<uint32_t> probe_ids;
        for (const Coord &q : seam.trackedLogical)
            probe_ids.push_back(qid(q));
        emit().appendFrameProbe(probe_ids, spec.basis);
    }

    if (spec.last) {
        // --- Final data readout ------------------------------------------
        std::map<Coord, uint32_t> data_meas;
        for (const Coord &q : data)
            data_meas[q] = static_cast<uint32_t>(
                noisy_measure(basis_init_error, basis_measure, q));
        // Final detectors: each basis-type generator compared with the
        // parity of the final data measurements over its support.
        for (const auto &g : patch.stabilizerGenerators()) {
            if (g.type != spec.basis)
                continue;
            std::vector<uint32_t> refs;
            for (const Coord &q : g.support)
                refs.push_back(data_meas.at(q));
            if (g.isSuper) {
                const auto &prev =
                    super_prev[static_cast<size_t>(g.sourceSuper)];
                if (prev.empty())
                    continue; // never measured (single-round experiments)
                refs.insert(refs.end(), prev.begin(), prev.end());
            } else {
                const size_t m = last_meas[static_cast<size_t>(g.sourceCheck)];
                if (m == SIZE_MAX)
                    continue;
                refs.push_back(static_cast<uint32_t>(m));
            }
            emit().appendDetector(refs, g.type);
        }

        // Logical observable: parity of the tracked bare representative.
        std::vector<uint32_t> obs_refs;
        for (const Coord &q : seam.trackedLogical)
            obs_refs.push_back(data_meas.at(q));
        emit().appendObservable(0, obs_refs);
    } else if (phantomSeam) {
        // Standalone decoder view of a non-final segment: a *noiseless*
        // logical readout so the DEM attributes observable flips to the
        // residual error frames at segment end. Emits no detectors, so the
        // detector range still mirrors the concatenated segment exactly.
        std::map<Coord, uint32_t> data_meas;
        for (const Coord &q : data)
            data_meas[q] = static_cast<uint32_t>(
                emit().append(basis_measure, {qid(q)}));
        std::vector<uint32_t> obs_refs;
        for (const Coord &q : seam.trackedLogical)
            obs_refs.push_back(data_meas.at(q));
        emit().appendObservable(0, obs_refs);
    }

    out.detEnd = emit().numDetectors();
    out.carry.lastMeas = std::move(last_meas);
    out.carry.superPrev = std::move(super_prev);
    return out;
}

Circuit
buildStandaloneSegment(const CodePatch &patch, const SegmentSpec &spec,
                       const NoiseParams &noise, const SeamPlan &seam,
                       const CodePatch *prevPatch)
{
    Circuit ckt;
    std::map<Coord, uint32_t> qubit_id;
    appendSegment(ckt, qubit_id, patch, spec, noise, seam, nullptr, true,
                  prevPatch);
    return ckt;
}

} // namespace surf
