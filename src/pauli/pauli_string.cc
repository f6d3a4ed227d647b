#include "pauli/pauli_string.hh"

#include "util/logging.hh"

namespace surf {

StatusOr<PauliString>
PauliString::parse(const std::string &text)
{
    size_t start = 0;
    uint8_t phase = 0;
    if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
        if (text[0] == '-')
            phase = 2;
        start = 1;
    }
    PauliString p(text.size() - start);
    for (size_t i = start; i < text.size(); ++i) {
        switch (text[i]) {
          case 'I':
          case '_':
            break;
          case 'X':
            p.setPauli(i - start, Pauli::X);
            break;
          case 'Y':
            p.setPauli(i - start, Pauli::Y);
            break;
          case 'Z':
            p.setPauli(i - start, Pauli::Z);
            break;
          default:
            return Status::invalidArgument(
                "bad Pauli character '" + std::string(1, text[i]) +
                "' at position " + std::to_string(i) + " in \"" + text +
                "\"");
        }
    }
    p.phase_ = (p.phase_ + phase) & 3;
    return p;
}

PauliString
PauliString::single(size_t n, size_t q, Pauli p)
{
    PauliString out(n);
    out.setPauli(q, p);
    return out;
}

Pauli
PauliString::pauliAt(size_t q) const
{
    const bool x = x_.get(q), z = z_.get(q);
    if (x && z)
        return Pauli::Y;
    if (x)
        return Pauli::X;
    if (z)
        return Pauli::Z;
    return Pauli::I;
}

void
PauliString::setPauli(size_t q, Pauli p)
{
    // Remove any existing Y phase contribution, then add the new one.
    if (x_.get(q) && z_.get(q))
        phase_ = (phase_ + 3) & 3;
    const bool x = (p == Pauli::X || p == Pauli::Y);
    const bool z = (p == Pauli::Z || p == Pauli::Y);
    x_.set(q, x);
    z_.set(q, z);
    if (p == Pauli::Y)
        phase_ = (phase_ + 1) & 3;
}

size_t
PauliString::weight() const
{
    size_t total = 0;
    for (size_t w = 0; w < x_.wordCount(); ++w)
        total += static_cast<size_t>(__builtin_popcountll(x_.word(w) | z_.word(w)));
    return total;
}

bool
PauliString::commutesWith(const PauliString &other) const
{
    return !(x_.andParity(other.z_) ^ z_.andParity(other.x_));
}

PauliString
PauliString::operator*(const PauliString &other) const
{
    PauliString out = *this;
    out *= other;
    return out;
}

PauliString &
PauliString::operator*=(const PauliString &other)
{
    SURF_ASSERT(numQubits() == other.numQubits(), "qubit count mismatch");
    // (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^{z1.x2} X^{x1+x2} Z^{z1+z2}
    const bool sign_flip = z_.andParity(other.x_);
    x_ ^= other.x_;
    z_ ^= other.z_;
    phase_ = (phase_ + other.phase_ + (sign_flip ? 2 : 0)) & 3;
    return *this;
}

bool
PauliString::equalsUpToPhase(const PauliString &other) const
{
    return x_ == other.x_ && z_ == other.z_;
}

bool
PauliString::isCssType(PauliType t) const
{
    return t == PauliType::X ? z_.isZero() : x_.isZero();
}

std::string
PauliString::str() const
{
    // Render with Y contributing i each; show the leftover global phase.
    uint8_t ph = phase_;
    const size_t n = numQubits();
    std::string body(n, 'I');
    for (size_t q = 0; q < n; ++q) {
        switch (pauliAt(q)) {
          case Pauli::I:
            break;
          case Pauli::X:
            body[q] = 'X';
            break;
          case Pauli::Y:
            body[q] = 'Y';
            ph = (ph + 3) & 3;
            break;
          case Pauli::Z:
            body[q] = 'Z';
            break;
        }
    }
    static const char *prefix[4] = {"+", "+i", "-", "-i"};
    return std::string(prefix[ph]) + body;
}

} // namespace surf
