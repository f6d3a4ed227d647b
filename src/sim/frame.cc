#include "sim/frame.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace surf {

namespace {

void
xorRow(uint64_t *dst, const uint64_t *src, size_t words)
{
    for (size_t w = 0; w < words; ++w)
        dst[w] ^= src[w];
}

void
flipBit(uint64_t *row, uint64_t s)
{
    row[s >> 6] ^= uint64_t{1} << (s & 63);
}

uint64_t *
wordsOf(BitVec &bits)
{
    return bits.wordCount() ? &bits.word(0) : nullptr;
}

} // namespace

FrameSimulator::FrameSimulator(const Circuit &circuit, size_t shots)
    : circuit_(&circuit), shots_(shots), words_((shots + 63) / 64)
{
    xf_.assign(circuit.numQubits() * words_, 0);
    zf_.assign(circuit.numQubits() * words_, 0);
    records_.assign(circuit.numMeasurements() * words_, 0);
    detectors_.assign(circuit.numDetectors() * words_, 0);
    observables_.assign(circuit.numObservables(), BitVec(shots));
    probes_.assign(circuit.numProbes(), BitVec(shots));
}

FrameSimulator::FrameSimulator(const Circuit &circuit, size_t shots,
                               uint64_t seed)
    : FrameSimulator(circuit, shots)
{
    rng_.reseed(seed);
    run();
}

void
FrameSimulator::reset(uint64_t seed)
{
    rng_.reseed(seed);
    std::fill(xf_.begin(), xf_.end(), 0);
    std::fill(zf_.begin(), zf_.end(), 0);
    for (auto &obs : observables_)
        obs.clear();
    for (auto &probe : probes_)
        probe.clear();
    pc_ = 0;
    num_records_ = 0;
    num_detectors_ = 0;
}

void
FrameSimulator::setupNoise(double p)
{
    if (p == noise_.p)
        return;
    noise_.p = p;
    if (p <= 0.0 || p >= 1.0)
        return; // drawSkip never reads the rest
    noise_.log1m = std::log1p(-p);
    noise_.quiet = std::exp(static_cast<double>(shots_) * noise_.log1m) *
                   (1.0 - 1e-9);
}

uint64_t
FrameSimulator::drawSkip(bool first)
{
    // Rng::geometricSkip with log1p(-p) hoisted.
    if (noise_.p <= 0.0)
        return ~0ULL;
    if (noise_.p >= 1.0)
        return 0;
    double u = rng_.uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    if (first && u < noise_.quiet)
        return shots_; // no event: the exact skip is >= shots_ too
    return Rng::skipFor(u, noise_.log1m);
}

template <typename Fn>
void
FrameSimulator::forEachEvent(Fn &&event)
{
    uint64_t s = drawSkip(true);
    while (s < shots_) {
        event(s);
        const uint64_t skip = drawSkip(false);
        if (skip >= shots_ - s)
            break;
        s += skip + 1;
    }
}

void
FrameSimulator::run()
{
    runUntil(SIZE_MAX);
}

void
FrameSimulator::runUntil(size_t detectors)
{
    // Cursors live in locals for the loop: the frame tables are uint64_t
    // rows, so stores through them could otherwise alias the members.
    const auto program = circuit_->instructions();
    size_t pc = pc_, num_records = num_records_;
    size_t num_detectors = num_detectors_;
    while (pc < program.size() && num_detectors < detectors) {
        const Instruction ins = program[pc++];
        switch (ins.op) {
          case Op::ResetZ:
          case Op::ResetX:
            for (uint32_t q : ins.targets) {
                std::fill_n(row(xf_, q), words_, 0);
                std::fill_n(row(zf_, q), words_, 0);
            }
            break;
          case Op::MeasureZ:
            for (uint32_t q : ins.targets) {
                std::copy_n(row(xf_, q), words_, row(records_, num_records++));
                // post-collapse phase frame is trivial
                std::fill_n(row(zf_, q), words_, 0);
            }
            break;
          case Op::MeasureX:
            for (uint32_t q : ins.targets) {
                std::copy_n(row(zf_, q), words_, row(records_, num_records++));
                std::fill_n(row(xf_, q), words_, 0);
            }
            break;
          case Op::H:
            for (uint32_t q : ins.targets)
                std::swap_ranges(row(xf_, q), row(xf_, q) + words_,
                                 row(zf_, q));
            break;
          case Op::CX:
            for (size_t i = 0; i + 1 < ins.targets.size(); i += 2) {
                const uint32_t c = ins.targets[i], t = ins.targets[i + 1];
                xorRow(row(xf_, t), row(xf_, c), words_);
                xorRow(row(zf_, c), row(zf_, t), words_);
            }
            break;
          case Op::XError:
          case Op::ZError: {
            setupNoise(ins.arg);
            auto &plane = ins.op == Op::XError ? xf_ : zf_;
            for (uint32_t q : ins.targets) {
                uint64_t *r = row(plane, q);
                forEachEvent([&](uint64_t s) { flipBit(r, s); });
            }
            break;
          }
          case Op::Depolarize1:
            setupNoise(ins.arg);
            for (uint32_t q : ins.targets) {
                uint64_t *x = row(xf_, q), *z = row(zf_, q);
                forEachEvent([&](uint64_t s) {
                    switch (rng_.below(3)) {
                      case 0: flipBit(x, s); break;
                      case 1: flipBit(x, s); flipBit(z, s); break;
                      default: flipBit(z, s); break;
                    }
                });
            }
            break;
          case Op::Depolarize2:
            setupNoise(ins.arg);
            for (size_t i = 0; i + 1 < ins.targets.size(); i += 2) {
                uint64_t *xa = row(xf_, ins.targets[i]);
                uint64_t *za = row(zf_, ins.targets[i]);
                uint64_t *xb = row(xf_, ins.targets[i + 1]);
                uint64_t *zb = row(zf_, ins.targets[i + 1]);
                forEachEvent([&](uint64_t s) {
                    const uint64_t which = 1 + rng_.below(15);
                    const uint64_t pa = which / 4, pb = which % 4;
                    if (pa == 1 || pa == 2) flipBit(xa, s);
                    if (pa == 2 || pa == 3) flipBit(za, s);
                    if (pb == 1 || pb == 2) flipBit(xb, s);
                    if (pb == 2 || pb == 3) flipBit(zb, s);
                });
            }
            break;
          case Op::Detector: {
            uint64_t *bits = row(detectors_, num_detectors++);
            std::fill_n(bits, words_, 0);
            for (uint32_t m : ins.targets)
                xorRow(bits, row(records_, m), words_);
            break;
          }
          case Op::ObservableInclude: {
            BitVec &obs = observables_[ins.aux];
            for (uint32_t m : ins.targets)
                xorRow(wordsOf(obs), row(records_, m), words_);
            break;
          }
          case Op::FrameProbe: {
            // Oracle instrumentation: parity of the frames that would flip
            // a basis measurement of the targets. No RNG, no state change.
            const bool basis_z = (ins.aux & 1u) != 0;
            BitVec &probe = probes_[ins.aux >> 2];
            for (uint32_t q : ins.targets)
                xorRow(wordsOf(probe), row(basis_z ? xf_ : zf_, q), words_);
            break;
          }
          case Op::Tick:
            break;
        }
    }
    pc_ = pc;
    num_records_ = num_records;
    num_detectors_ = num_detectors;
}

BitVec
FrameSimulator::detectorBits(size_t det) const
{
    BitVec bits(shots_);
    std::copy_n(row(detectors_, det), words_, wordsOf(bits));
    return bits;
}

std::vector<uint32_t>
FrameSimulator::firedDetectors(size_t shot) const
{
    std::vector<uint32_t> out;
    for (size_t d = 0; d < num_detectors_; ++d)
        if ((row(detectors_, d)[shot >> 6] >> (shot & 63)) & 1)
            out.push_back(static_cast<uint32_t>(d));
    return out;
}

void
FrameSimulator::sparseFiredDetectors(SparseSyndromes &out) const
{
    sparseFiredDetectors(out, 0, num_detectors_);
}

void
FrameSimulator::sparseFiredDetectors(SparseSyndromes &out, size_t begin,
                                     size_t end) const
{
    SURF_ASSERT(begin <= end && end <= num_detectors_,
                "detector range not sampled yet");
    // Calls fn(shot) for every set bit of detector d, ascending.
    auto forEachShot = [&](size_t d, auto &&fn) {
        const uint64_t *bits = row(detectors_, d);
        for (size_t w = 0; w < words_; ++w)
            for (uint64_t word = bits[w]; word; word &= word - 1)
                fn(w * 64 + static_cast<size_t>(std::countr_zero(word)));
    };

    // Pass 1: per-shot fired counts. Detector rows are extremely sparse
    // at realistic noise, so almost every 64-shot word is zero and the
    // inner loop never runs.
    out.offsets.assign(shots_ + 1, 0);
    for (size_t d = begin; d < end; ++d)
        forEachShot(d, [&](size_t s) { ++out.offsets[s + 1]; });
    std::partial_sum(out.offsets.begin(), out.offsets.end(),
                     out.offsets.begin());

    // Pass 2: fill. Detectors are visited in ascending id order, so each
    // shot's slice comes out sorted — same order firedDetectors() yields.
    out.flat.resize(out.offsets[shots_]);
    out.cursor_.assign(out.offsets.begin(), out.offsets.end() - 1);
    for (size_t d = begin; d < end; ++d)
        forEachShot(d, [&](size_t s) {
            out.flat[out.cursor_[s]++] = static_cast<uint32_t>(d - begin);
        });
}

SparseSyndromes
FrameSimulator::sparseFiredDetectors() const
{
    SparseSyndromes out;
    sparseFiredDetectors(out);
    return out;
}

} // namespace surf
