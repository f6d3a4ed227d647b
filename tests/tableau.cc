#include "tableau.hh"

#include "util/logging.hh"

namespace surf {

TableauSimulator::TableauSimulator(uint32_t n, uint64_t seed)
    : n_(n), r_(2 * n + 1), rng_(seed)
{
    x_.assign(2 * n + 1, BitVec(n));
    z_.assign(2 * n + 1, BitVec(n));
    // Destabilizer i = X_i, stabilizer n+i = Z_i (the |0...0> state).
    for (uint32_t i = 0; i < n; ++i) {
        x_[i].set(i, true);
        z_[n + i].set(i, true);
    }
}

void
TableauSimulator::h(uint32_t q)
{
    for (uint32_t i = 0; i < 2 * n_; ++i) {
        const bool xq = x_[i].get(q), zq = z_[i].get(q);
        if (xq && zq)
            r_.flip(i);
        x_[i].set(q, zq);
        z_[i].set(q, xq);
    }
}

void
TableauSimulator::cx(uint32_t c, uint32_t t)
{
    for (uint32_t i = 0; i < 2 * n_; ++i) {
        const bool xc = x_[i].get(c), zc = z_[i].get(c);
        const bool xt = x_[i].get(t), zt = z_[i].get(t);
        if (xc && zt && (xt == zc))
            r_.flip(i);
        x_[i].set(t, xt ^ xc);
        z_[i].set(c, zc ^ zt);
    }
}

void
TableauSimulator::x(uint32_t q)
{
    for (uint32_t i = 0; i < 2 * n_; ++i)
        if (z_[i].get(q))
            r_.flip(i);
}

void
TableauSimulator::z(uint32_t q)
{
    for (uint32_t i = 0; i < 2 * n_; ++i)
        if (x_[i].get(q))
            r_.flip(i);
}

int
TableauSimulator::rowPhaseExponent(uint32_t dst, uint32_t src) const
{
    // Exponent of i accumulated when multiplying row src into row dst
    // (Aaronson-Gottesman rowsum g function), mod 4.
    int g = 0;
    for (uint32_t q = 0; q < n_; ++q) {
        const int x1 = x_[src].get(q), z1 = z_[src].get(q);
        const int x2 = x_[dst].get(q), z2 = z_[dst].get(q);
        if (!x1 && !z1)
            continue;
        if (x1 && z1)
            g += z2 - x2;
        else if (x1)
            g += z2 * (2 * x2 - 1);
        else
            g += x2 * (1 - 2 * z2);
    }
    return g;
}

void
TableauSimulator::rowMult(uint32_t dst, uint32_t src)
{
    const int total = 2 * (r_.get(dst) ? 1 : 0) + 2 * (r_.get(src) ? 1 : 0) +
                      rowPhaseExponent(dst, src);
    const int mod = ((total % 4) + 4) % 4;
    SURF_ASSERT(mod == 0 || mod == 2, "imaginary phase in rowMult");
    r_.set(dst, mod == 2);
    x_[dst] ^= x_[src];
    z_[dst] ^= z_[src];
}

void
TableauSimulator::rowCopy(uint32_t dst, uint32_t src)
{
    x_[dst] = x_[src];
    z_[dst] = z_[src];
    r_.set(dst, r_.get(src));
}

bool
TableauSimulator::isDeterministicZ(uint32_t q) const
{
    for (uint32_t p = n_; p < 2 * n_; ++p)
        if (x_[p].get(q))
            return false;
    return true;
}

bool
TableauSimulator::isDeterministicX(uint32_t q) const
{
    for (uint32_t p = n_; p < 2 * n_; ++p)
        if (z_[p].get(q))
            return false;
    return true;
}

bool
TableauSimulator::measureZInternal(uint32_t q, bool force_to, bool use_force)
{
    // Random case: some stabilizer row anti-commutes with Z_q.
    uint32_t p = 2 * n_;
    for (uint32_t i = n_; i < 2 * n_; ++i) {
        if (x_[i].get(q)) {
            p = i;
            break;
        }
    }
    if (p < 2 * n_) {
        for (uint32_t i = 0; i < 2 * n_; ++i)
            if (i != p && x_[i].get(q))
                rowMult(i, p);
        rowCopy(p - n_, p);
        x_[p].clear();
        z_[p].clear();
        z_[p].set(q, true);
        const bool outcome = use_force ? force_to : rng_.bernoulli(0.5);
        r_.set(p, outcome);
        return outcome;
    }
    // Deterministic case: accumulate into the scratch row.
    const uint32_t scratch = 2 * n_;
    x_[scratch].clear();
    z_[scratch].clear();
    r_.set(scratch, false);
    for (uint32_t i = 0; i < n_; ++i)
        if (x_[i].get(q))
            rowMult(scratch, i + n_);
    return r_.get(scratch);
}

bool
TableauSimulator::measureZ(uint32_t q)
{
    return measureZInternal(q, false, false);
}

bool
TableauSimulator::measureX(uint32_t q)
{
    h(q);
    const bool b = measureZInternal(q, false, false);
    h(q);
    return b;
}

void
TableauSimulator::resetZ(uint32_t q)
{
    if (measureZ(q))
        x(q);
}

void
TableauSimulator::resetX(uint32_t q)
{
    if (measureX(q))
        z(q);
}

int
TableauSimulator::expectation(const PauliString &p) const
{
    SURF_ASSERT(p.numQubits() == n_, "operator size mismatch");
    SURF_ASSERT((p.phase() & 1) == 0, "non-Hermitian phase");
    // Random unless p commutes with every stabilizer row.
    for (uint32_t i = n_; i < 2 * n_; ++i) {
        bool anti = false;
        for (uint32_t q = 0; q < n_; ++q) {
            const bool a = p.xBits().get(q) && z_[i].get(q);
            const bool b = p.zBits().get(q) && x_[i].get(q);
            anti ^= (a != b) && (a || b);
        }
        if (anti)
            return 0;
    }
    // Decompose p over stabilizer rows using the destabilizers: stabilizer
    // row i+n participates iff p anti-commutes with destabilizer row i.
    TableauSimulator copy = *this;
    const uint32_t scratch = 2 * n_;
    copy.x_[scratch].clear();
    copy.z_[scratch].clear();
    copy.r_.set(scratch, false);
    for (uint32_t i = 0; i < n_; ++i) {
        bool anti = false;
        for (uint32_t q = 0; q < n_; ++q) {
            const bool a = p.xBits().get(q) && z_[i].get(q);
            const bool b = p.zBits().get(q) && x_[i].get(q);
            anti ^= (a != b) && (a || b);
        }
        if (anti)
            copy.rowMult(scratch, i + n_);
    }
    SURF_ASSERT(copy.x_[scratch] == p.xBits() &&
                    copy.z_[scratch] == p.zBits(),
                "commuting operator not in the stabilizer group");
    // The tableau row sign is in the Y-convention; PauliString phases are
    // in the XZ form (Y = iXZ), so they differ by i^{#Y}.
    int y_count = 0;
    for (uint32_t q = 0; q < n_; ++q)
        if (p.xBits().get(q) && p.zBits().get(q))
            ++y_count;
    const int row_phase =
        (2 * (copy.r_.get(scratch) ? 1 : 0) + y_count) & 3;
    const int diff = ((row_phase - p.phase()) % 4 + 4) % 4;
    SURF_ASSERT(diff == 0 || diff == 2, "imaginary sign in expectation");
    return diff == 0 ? +1 : -1;
}

TableauSimulator::RunResult
TableauSimulator::runCircuit(const Circuit &circuit, uint64_t seed,
                             bool sample_noise)
{
    TableauSimulator sim(circuit.numQubits(), seed);
    Rng noise_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RunResult out;
    for (const auto &ins : circuit.instructions()) {
        switch (ins.op) {
          case Op::ResetZ:
            for (uint32_t q : ins.targets)
                sim.resetZ(q);
            break;
          case Op::ResetX:
            for (uint32_t q : ins.targets)
                sim.resetX(q);
            break;
          case Op::MeasureZ:
            for (uint32_t q : ins.targets)
                out.measurements.push_back(sim.measureZ(q));
            break;
          case Op::MeasureX:
            for (uint32_t q : ins.targets)
                out.measurements.push_back(sim.measureX(q));
            break;
          case Op::H:
            for (uint32_t q : ins.targets)
                sim.h(q);
            break;
          case Op::CX:
            for (size_t i = 0; i + 1 < ins.targets.size(); i += 2)
                sim.cx(ins.targets[i], ins.targets[i + 1]);
            break;
          case Op::XError:
            if (sample_noise)
                for (uint32_t q : ins.targets)
                    if (noise_rng.bernoulli(ins.arg))
                        sim.x(q);
            break;
          case Op::ZError:
            if (sample_noise)
                for (uint32_t q : ins.targets)
                    if (noise_rng.bernoulli(ins.arg))
                        sim.z(q);
            break;
          case Op::Depolarize1:
            if (sample_noise) {
                for (uint32_t q : ins.targets) {
                    if (!noise_rng.bernoulli(ins.arg))
                        continue;
                    switch (noise_rng.below(3)) {
                      case 0: sim.x(q); break;
                      case 1: sim.x(q); sim.z(q); break;
                      default: sim.z(q); break;
                    }
                }
            }
            break;
          case Op::Depolarize2:
            if (sample_noise) {
                for (size_t i = 0; i + 1 < ins.targets.size(); i += 2) {
                    if (!noise_rng.bernoulli(ins.arg))
                        continue;
                    const uint64_t which = 1 + noise_rng.below(15);
                    const uint32_t qa = ins.targets[i], qb = ins.targets[i + 1];
                    const uint64_t pa = which / 4, pb = which % 4;
                    if (pa == 1 || pa == 2) sim.x(qa);
                    if (pa == 2 || pa == 3) sim.z(qa);
                    if (pb == 1 || pb == 2) sim.x(qb);
                    if (pb == 2 || pb == 3) sim.z(qb);
                }
            }
            break;
          case Op::Detector: {
            bool parity = false;
            for (uint32_t m : ins.targets)
                parity ^= out.measurements[m];
            out.detectors.push_back(parity);
            break;
          }
          case Op::ObservableInclude: {
            if (out.observables.size() <= ins.aux)
                out.observables.resize(ins.aux + 1, false);
            bool parity = out.observables[ins.aux];
            for (uint32_t m : ins.targets)
                parity ^= out.measurements[m];
            out.observables[ins.aux] = parity;
            break;
          }
          case Op::Tick:
          case Op::FrameProbe: // oracle instrumentation: identity channel
            break;
        }
    }
    return out;
}

} // namespace surf
