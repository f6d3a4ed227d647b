/**
 * @file
 * Doubled integer lattice coordinates (Stim convention): data qubits live
 * at odd-odd positions, check ancillas at even-even positions. Using the
 * doubled grid keeps every qubit on integer coordinates.
 */

#ifndef SURF_LATTICE_COORD_HH
#define SURF_LATTICE_COORD_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace surf {

/** A point on the doubled lattice. */
struct Coord
{
    int x = 0;
    int y = 0;

    auto operator<=>(const Coord &) const = default;

    Coord operator+(const Coord &o) const { return {x + o.x, y + o.y}; }
    Coord operator-(const Coord &o) const { return {x - o.x, y - o.y}; }

    /** True for data-qubit positions (odd, odd). */
    bool isDataSite() const { return (x & 1) && (y & 1); }

    /** True for check-ancilla positions (even, even). */
    bool isCheckSite() const { return !(x & 1) && !(y & 1); }

    std::string
    str() const
    {
        // reserve + append: GCC 12 at -O3 mistakes the inlined
        // `"(" + ...` chain for an overlapping copy (-Wrestrict).
        const std::string xs = std::to_string(x), ys = std::to_string(y);
        std::string s;
        s.reserve(xs.size() + ys.size() + 3);
        s.append("(").append(xs).append(",").append(ys).append(")");
        return s;
    }
};

/** The four compass sides of a patch. North = decreasing y. */
enum class Side : uint8_t { North = 0, South = 1, West = 2, East = 3 };

inline const char *
sideName(Side s)
{
    switch (s) {
      case Side::North: return "north";
      case Side::South: return "south";
      case Side::West:  return "west";
      case Side::East:  return "east";
    }
    return "?";
}

} // namespace surf

template <>
struct std::hash<surf::Coord>
{
    size_t
    operator()(const surf::Coord &c) const noexcept
    {
        // Pack into 64 bits, then mix.
        uint64_t v = (static_cast<uint64_t>(static_cast<uint32_t>(c.x)) << 32) |
                     static_cast<uint32_t>(c.y);
        v ^= v >> 33;
        v *= 0xff51afd7ed558ccdULL;
        v ^= v >> 33;
        return static_cast<size_t>(v);
    }
};

#endif // SURF_LATTICE_COORD_HH
