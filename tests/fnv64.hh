/**
 * @file
 * FNV-1a, 64-bit, fed one 64-bit word at a time: the digest the golden
 * tests pin their recorded outputs with.
 */

#ifndef SURF_TESTS_FNV64_HH
#define SURF_TESTS_FNV64_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace surf::testref {

struct Fnv64
{
    uint64_t h = 1469598103934665603ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
        }
    }
    void
    addDouble(double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
    /** Length, then one word per byte. */
    void
    addString(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s)
            add(c);
    }
};

} // namespace surf::testref

#endif // SURF_TESTS_FNV64_HH
