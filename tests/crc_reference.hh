/**
 * @file
 * Reference CRC32 for the tests: the plain bytewise table loop (IEEE
 * 802.3, reflected polynomial 0xEDB88320), kept as an oracle for both
 * kernels of crc32() in persist/snapshot.cc (carry-less multiply and
 * slice-by-8). One table lookup per input byte, no word loads, no
 * alignment or endianness concerns.
 */

#ifndef SURF_TESTS_CRC_REFERENCE_HH
#define SURF_TESTS_CRC_REFERENCE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace surf::testref {

inline uint32_t
referenceCrc32(const void *data, size_t n, uint32_t seed = 0)
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace surf::testref

#endif // SURF_TESTS_CRC_REFERENCE_HH
