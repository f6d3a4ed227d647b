/**
 * @file
 * CodePatch: the geometric description of a (possibly deformed) surface
 * code patch. A patch holds the set of live data qubits, the measured
 * check operators (stabilizer checks measured every round and gauge checks
 * measured on alternating rounds), the super-stabilizer clusters whose
 * products form inferred stabilizers, and logical operator representatives.
 *
 * This is the object the Surf-Deformer instructions (paper Sec. IV) act on.
 */

#ifndef SURF_LATTICE_PATCH_HH
#define SURF_LATTICE_PATCH_HH

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lattice/coord.hh"
#include "pauli/pauli_string.hh"

namespace surf {

/** Outcome of a structural validity check, with a reason when invalid. */
struct ValidationResult
{
    bool ok = true;
    std::string reason;

    static ValidationResult pass() { return {}; }
    static ValidationResult
    fail(std::string why)
    {
        return {false, std::move(why)};
    }
};

/** Whether a measured operator is a full stabilizer or a gauge operator. */
enum class CheckRole : uint8_t { Stabilizer, Gauge };

/**
 * One measured operator: a pure-type Pauli product over data qubits.
 *
 * Stabilizer checks are measured every round. Gauge checks are measured on
 * alternating rounds (phase 0 on even rounds, phase 1 on odd rounds)
 * because gauge operators of opposite type anti-commute; their cluster
 * products are the inferred super-stabilizers.
 */
struct Check
{
    PauliType type = PauliType::Z;
    std::vector<Coord> support;       ///< sorted data-qubit coordinates
    std::optional<Coord> ancilla;     ///< syndrome qubit; nullopt = direct
                                      ///< single-data-qubit measurement
    CheckRole role = CheckRole::Stabilizer;
    int phase = 0;                    ///< gauge measurement parity (0 or 1)
    int cluster = -1;                 ///< super-stabilizer cluster id

    size_t weight() const { return support.size(); }
    bool contains(Coord q) const;
};

/**
 * A super-stabilizer: an inferred stabilizer equal to the product of a set
 * of measured gauge checks (its value is the XOR of their outcomes).
 */
struct SuperStab
{
    PauliType type;
    std::vector<int> members;         ///< indices into CodePatch::checks()
};

/** A stabilizer-group generator with its (XOR-reduced) support. */
struct StabGen
{
    PauliType type;
    std::vector<Coord> support;       ///< sorted, duplicates cancelled
    bool isSuper = false;
    int sourceCheck = -1;             ///< check index for plain stabilizers
    int sourceSuper = -1;             ///< super index for super-stabilizers
};

/**
 * A deformed surface code patch.
 *
 * The pristine patch is a dx-by-dz rectangular rotated surface code whose
 * north/south boundaries are Z-type (Z-logical runs north-south along the
 * west column) and whose east/west boundaries are X-type (X-logical runs
 * east-west along the north row).
 */
class CodePatch
{
  public:
    CodePatch() = default;

    /** @name Structure access */
    ///@{
    const std::set<Coord> &dataQubits() const { return data_; }
    bool hasData(Coord q) const { return data_.count(q) > 0; }
    size_t numData() const { return data_.size(); }

    const std::vector<Check> &checks() const { return checks_; }
    const std::vector<SuperStab> &supers() const { return supers_; }

    /** Indices of checks of the given type containing data qubit q. */
    std::vector<int> checksOn(Coord q, PauliType t) const;
    /** Indices of all checks containing data qubit q. */
    std::vector<int> checksOn(Coord q) const;

    /** Stabilizer-group generators: plain stabilizer checks plus the
     *  XOR-reduced products of each super-stabilizer cluster. */
    std::vector<StabGen> stabilizerGenerators() const;

    /** Sorted list of live data qubits. */
    std::vector<Coord> dataList() const;

    /** Total physical qubits: data plus distinct check ancillas. */
    size_t numPhysicalQubits() const;
    ///@}

    /** @name Logical operator representatives */
    ///@{
    const std::vector<Coord> &logicalX() const { return logicalX_; }
    const std::vector<Coord> &logicalZ() const { return logicalZ_; }
    void setLogicalX(std::vector<Coord> s) { logicalX_ = std::move(s); }
    void setLogicalZ(std::vector<Coord> s) { logicalZ_ = std::move(s); }
    ///@}

    /** @name Geometry */
    ///@{
    /** Data-extent bounding box [xMin..xMax] x [yMin..yMax] (odd coords). */
    int xMin() const { return xMin_; }
    int xMax() const { return xMax_; }
    int yMin() const { return yMin_; }
    int yMax() const { return yMax_; }
    void setBounds(int x0, int x1, int y0, int y1);

    /** Boundary type of a side: north/south are Z, east/west are X. */
    static PauliType
    boundaryType(Side s)
    {
        return (s == Side::North || s == Side::South) ? PauliType::Z
                                                      : PauliType::X;
    }
    ///@}

    /** @name Mutation (used by the deformation instructions) */
    ///@{
    void addData(Coord q);
    void removeData(Coord q);
    /** Append a check; returns its index. */
    int addCheck(Check c);
    /** Remove checks flagged true in `dead` and remap cluster members. */
    void compactChecks(const std::vector<bool> &dead);
    std::vector<Check> &mutableChecks() { return checks_; }

    /**
     * Recompute the super-stabilizers from the current gauge checks.
     *
     * For each type t, the inferred stabilizers are the products of
     * type-t gauge checks that commute with every opposite-type gauge
     * check; their generating subsets are the kernel of the GF(2)
     * anti-commutation matrix. Gauge checks that commute with everything
     * are promoted back to plain stabilizers. Measurement phases
     * alternate globally: Z-gauges on even rounds, X-gauges on odd rounds
     * (the standard super-stabilizer protocol).
     */
    void recomputeSupers();
    ///@}

    /**
     * Structural validation: supports are live data sites, stabilizer
     * generators mutually commute, every stabilizer generator commutes
     * with every measured gauge check, and the logical representatives
     * commute with all generators while anti-commuting with each other.
     */
    ValidationResult validate() const;

    /** ASCII rendering for debugging and examples. */
    std::string render() const;

  private:
    std::set<Coord> data_;
    std::vector<Check> checks_;
    std::vector<SuperStab> supers_;
    std::vector<Coord> logicalX_, logicalZ_;
    int xMin_ = 0, xMax_ = 0, yMin_ = 0, yMax_ = 0;
};

/** Parity of the overlap between two sorted coordinate supports. */
bool supportsAnticommute(const std::vector<Coord> &a,
                         const std::vector<Coord> &b);

/** Symmetric difference of two sorted coordinate supports. */
std::vector<Coord> supportXor(const std::vector<Coord> &a,
                              const std::vector<Coord> &b);

} // namespace surf

#endif // SURF_LATTICE_PATCH_HH
