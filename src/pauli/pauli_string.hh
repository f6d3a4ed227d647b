/**
 * @file
 * N-qubit Pauli operators in the XZ form P = i^phase * X^x Z^z with a
 * global phase tracked mod 4. This is the algebraic object behind
 * stabilizers, gauge operators and logical operators (paper Sec. II-C and
 * Appendix A).
 */

#ifndef SURF_PAULI_PAULI_STRING_HH
#define SURF_PAULI_PAULI_STRING_HH

#include <cstdint>
#include <string>

#include "pauli/bitvec.hh"
#include "util/status.hh"

namespace surf {

/** Single-qubit Pauli kind. */
enum class Pauli : uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

/** The two CSS operator types used throughout the surface-code layer. */
enum class PauliType : uint8_t { X = 0, Z = 1 };

/** The opposite CSS type. */
inline PauliType
oppositeType(PauliType t)
{
    return t == PauliType::X ? PauliType::Z : PauliType::X;
}

inline char
typeChar(PauliType t)
{
    return t == PauliType::X ? 'X' : 'Z';
}

/**
 * An n-qubit Pauli operator stored as P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}.
 *
 * Multiplication composes left-to-right: (a * b) means "apply b, then a" in
 * operator order a·b, with the phase bookkeeping
 * (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^{z1·x2} X^{x1^x2} Z^{z1^z2}.
 */
class PauliString
{
  public:
    PauliString() = default;
    explicit PauliString(size_t n) : x_(n), z_(n), phase_(0) {}

    /**
     * Parse from text like "+XIZZY" or "-ZZ". A 'Y' contributes i*XZ, so
     * the stored phase accounts for it. Characters outside [IXYZ_+-]
     * come back as INVALID_ARGUMENT.
     */
    static StatusOr<PauliString> parse(const std::string &text);

    /** Weight-1 operator P on qubit q of an n-qubit register. */
    static PauliString single(size_t n, size_t q, Pauli p);

    size_t numQubits() const { return x_.size(); }

    /** The Pauli acting on qubit q (ignoring global phase). */
    Pauli pauliAt(size_t q) const;

    /** Set the Pauli on qubit q, adjusting the phase for Y = iXZ. */
    void setPauli(size_t q, Pauli p);

    /** Number of qubits acted on non-trivially. */
    size_t weight() const;

    /** True when the operator is a phase times identity. */
    bool isIdentity() const { return x_.isZero() && z_.isZero(); }

    /** True when this commutes with other. */
    bool commutesWith(const PauliString &other) const;

    /** Operator product this * other (phase tracked mod 4). */
    PauliString operator*(const PauliString &other) const;
    PauliString &operator*=(const PauliString &other);

    /** Equality including phase. */
    bool operator==(const PauliString &other) const = default;

    /** Equality of the Pauli content ignoring the global phase. */
    bool equalsUpToPhase(const PauliString &other) const;

    /** Exponent of i in the global phase (0..3). */
    uint8_t phase() const { return phase_; }
    void setPhase(uint8_t p) { phase_ = p & 3; }

    /** X bit-plane (which qubits carry an X factor). */
    const BitVec &xBits() const { return x_; }
    /** Z bit-plane (which qubits carry a Z factor). */
    const BitVec &zBits() const { return z_; }
    BitVec &xBits() { return x_; }
    BitVec &zBits() { return z_; }

    /**
     * True if every non-identity factor is of the given CSS type
     * (pure-X or pure-Z operator).
     */
    bool isCssType(PauliType t) const;

    /** Text form like "+XIZ". */
    std::string str() const;

  private:
    BitVec x_;
    BitVec z_;
    uint8_t phase_ = 0;
};

} // namespace surf

#endif // SURF_PAULI_PAULI_STRING_HH
