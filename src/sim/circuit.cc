#include "sim/circuit.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace surf {

namespace {

/** Ops whose multi-target form equals the sequence of single ones. */
bool
coalescable(Op op)
{
    return op != Op::Detector && op != Op::ObservableInclude &&
           op != Op::FrameProbe && op != Op::Tick;
}

bool
isMeasurement(Op op)
{
    return op == Op::MeasureZ || op == Op::MeasureX;
}

} // namespace

void
Circuit::push(Op op, std::span<const uint32_t> targets, double arg,
              uint32_t aux)
{
    records_.push_back({op, aux, arg, static_cast<uint32_t>(targets_.size()),
                        static_cast<uint32_t>(targets.size())});
    targets_.insert(targets_.end(), targets.begin(), targets.end());
}

size_t
Circuit::append(Op op, std::span<const uint32_t> targets, double arg)
{
    SURF_ASSERT(op != Op::Detector && op != Op::ObservableInclude &&
                    op != Op::FrameProbe,
                "use appendDetector/appendObservable/appendFrameProbe");
    if (op == Op::CX || op == Op::Depolarize2)
        SURF_ASSERT(targets.size() % 2 == 0, "pairwise op needs even targets");
    if (isNoiseOp(op))
        SURF_ASSERT(arg >= 0.0 && arg <= 1.0, "bad noise probability ", arg);
    for (uint32_t t : targets)
        num_qubits_ = std::max(num_qubits_, t + 1);
    const size_t first_meas = num_measurements_;
    if (isMeasurement(op))
        num_measurements_ += targets.size();
    if (!records_.empty() && records_.back().op == op &&
        records_.back().arg == arg && coalescable(op)) {
        records_.back().count += static_cast<uint32_t>(targets.size());
        targets_.insert(targets_.end(), targets.begin(), targets.end());
    } else {
        push(op, targets, arg, 0);
    }
    return first_meas;
}

void
Circuit::appendDetector(std::span<const uint32_t> measurement_indices,
                        PauliType basis_tag)
{
    for (uint32_t m : measurement_indices)
        SURF_ASSERT(m < num_measurements_, "detector references future "
                                           "measurement ", m);
    push(Op::Detector, measurement_indices, 0.0,
         basis_tag == PauliType::Z ? 1u : 0u);
    ++num_detectors_;
}

void
Circuit::appendObservable(uint32_t observable_index,
                          std::span<const uint32_t> measurement_indices)
{
    for (uint32_t m : measurement_indices)
        SURF_ASSERT(m < num_measurements_, "observable references future "
                                           "measurement ", m);
    push(Op::ObservableInclude, measurement_indices, 0.0, observable_index);
    num_observables_ = std::max<size_t>(num_observables_, observable_index + 1);
}

uint32_t
Circuit::appendFrameProbe(std::span<const uint32_t> qubits, PauliType basis,
                          bool observable_cancel)
{
    for (uint32_t t : qubits)
        num_qubits_ = std::max(num_qubits_, t + 1);
    const uint32_t index = static_cast<uint32_t>(num_probes_++);
    push(Op::FrameProbe, qubits, 0.0,
         (index << 2) | (observable_cancel ? 2u : 0u) |
             (basis == PauliType::Z ? 1u : 0u));
    return index;
}

bool
Circuit::appendRaw(Op op, double arg, uint32_t aux, const char *target_bytes,
                   size_t count)
{
    const size_t first = targets_.size();
    targets_.resize(first + count);
    if (count)
        std::memcpy(targets_.data() + first, target_bytes,
                    count * sizeof(uint32_t));
    if (!accountRaw({op, {targets_.data() + first, count}, arg, aux})) {
        targets_.resize(first);
        return false;
    }
    records_.push_back({op, aux, arg, static_cast<uint32_t>(first),
                        static_cast<uint32_t>(count)});
    return true;
}

bool
Circuit::accountRaw(const Instruction &ins)
{
    switch (ins.op) {
      case Op::Detector:
        for (uint32_t m : ins.targets)
            if (m >= num_measurements_)
                return false;
        if (ins.aux > 1)
            return false;
        ++num_detectors_;
        break;
      case Op::ObservableInclude:
        for (uint32_t m : ins.targets)
            if (m >= num_measurements_)
                return false;
        num_observables_ =
            std::max<size_t>(num_observables_, ins.aux + 1);
        break;
      case Op::FrameProbe:
        for (uint32_t t : ins.targets)
            num_qubits_ = std::max(num_qubits_, t + 1);
        num_probes_ = std::max<size_t>(num_probes_, (ins.aux >> 2) + 1);
        break;
      case Op::ResetZ:
      case Op::ResetX:
      case Op::MeasureZ:
      case Op::MeasureX:
      case Op::H:
      case Op::CX:
      case Op::XError:
      case Op::ZError:
      case Op::Depolarize1:
      case Op::Depolarize2:
      case Op::Tick:
        if ((ins.op == Op::CX || ins.op == Op::Depolarize2) &&
            ins.targets.size() % 2 != 0)
            return false;
        if (isNoiseOp(ins.op) && !(ins.arg >= 0.0 && ins.arg <= 1.0))
            return false;
        for (uint32_t t : ins.targets)
            num_qubits_ = std::max(num_qubits_, t + 1);
        if (isMeasurement(ins.op))
            num_measurements_ += ins.targets.size();
        break;
      default:
        return false; // unknown opcode byte in a snapshot
    }
    return true;
}

size_t
Circuit::countNoiseSites() const
{
    size_t n = 0;
    for (const Record &r : records_)
        if (isNoiseOp(r.op))
            n += r.op == Op::Depolarize2 ? r.count / 2 : r.count;
    return n;
}

size_t
Circuit::memoryBytes() const
{
    return records_.capacity() * sizeof(Record) +
           targets_.capacity() * sizeof(uint32_t);
}

std::string
Circuit::str() const
{
    static const char *names[] = {"R",  "RX", "M",  "MX", "H", "CX",
                                  "X_ERROR", "Z_ERROR", "DEPOLARIZE1",
                                  "DEPOLARIZE2", "DETECTOR", "OBSERVABLE",
                                  "TICK", "FRAME_PROBE"};
    std::ostringstream oss;
    for (const auto &ins : instructions()) {
        oss << names[static_cast<int>(ins.op)];
        if (isNoiseOp(ins.op))
            oss << "(" << ins.arg << ")";
        if (ins.op == Op::ObservableInclude)
            oss << "[" << ins.aux << "]";
        for (uint32_t t : ins.targets)
            oss << " " << t;
        oss << "\n";
    }
    return oss.str();
}

} // namespace surf
