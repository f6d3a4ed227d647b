#include "persist/snapshot.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>

#if defined(__x86_64__) && defined(__GNUC__)
#define SURF_CRC32_CLMUL 1
#include <immintrin.h>
#endif

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "faultinject/fault_plan.hh"
#include "util/logging.hh"

namespace surf {

namespace {

constexpr char kMagic[8] = {'S', 'U', 'R', 'F', 'S', 'N', 'P', '1'};
constexpr size_t kHeaderBytes = kSnapshotHeaderBytes;

/** Slice-by-8 tables: t[0] is the bytewise table; t[k][i] is the CRC
 *  state after feeding byte i followed by k zero bytes, so eight table
 *  lookups advance the CRC by eight input bytes at once. */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

Status
ioError(const std::string &what, const std::string &path)
{
    return Status::dataLoss(what + " '" + path + "': " +
                            std::strerror(errno));
}

/** Temp file for an atomic write of `path`: in the target's directory,
 *  so the rename stays within one filesystem (rename across filesystems
 *  is not atomic). */
std::string
tempPathFor(const std::string &path)
{
    return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

bool
writeAll(int fd, const char *data, size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Read exactly `n` bytes; false on an error or at EOF first. */
bool
readAll(int fd, char *data, size_t n)
{
    while (n > 0) {
        const ssize_t r = ::read(fd, data, n);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        data += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

/** Make the fully written temp file `tmp` (its descriptor `fd`, which
 *  this closes) visible as `path`; on any failure `tmp` is unlinked and
 *  `path` is untouched. */
Status
commitTempFile(int fd, const std::string &tmp, const std::string &path)
{
    // fsync before rename: the rename must never become visible ahead of
    // the data it points at, or a crash between the two would leave a
    // torn file under the final name.
    if (::fsync(fd) != 0) {
        Status s = ioError("snapshot: fsync failed on", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return s;
    }
    if (::close(fd) != 0) {
        Status s = ioError("snapshot: close failed on", tmp);
        ::unlink(tmp.c_str());
        return s;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        Status s = ioError("snapshot: rename failed onto", path);
        ::unlink(tmp.c_str());
        return s;
    }
    // Persist the directory entry too; failure here is not fatal to
    // correctness (the data is durable, the name may revert on crash).
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return Status::okStatus();
}

/** Validate a snapshot header (kHeaderBytes at `h`). */
Status
checkHeader(const char *h)
{
    ByteReader r(h, kHeaderBytes);
    const char *magic = r.bytes(sizeof kMagic);
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        return Status::corruptSnapshot("snapshot magic mismatch");
    const uint32_t format = r.u32();
    const uint32_t abi = r.u32();
    const uint32_t stored_crc = r.u32();
    if (stored_crc != crc32(h, kHeaderBytes - 4))
        return Status::corruptSnapshot("snapshot header CRC mismatch");
    if (format != kSnapshotFormatVersion)
        return Status::corruptSnapshot(
            "snapshot format version " + std::to_string(format) +
            " (this build reads " +
            std::to_string(kSnapshotFormatVersion) + ")");
    if (abi != kSnapshotAbiVersion)
        return Status::corruptSnapshot(
            "snapshot ABI version " + std::to_string(abi) +
            " (this build reads " + std::to_string(kSnapshotAbiVersion) +
            ")");
    return Status::okStatus();
}

uint32_t
crc32SliceBy8State(uint32_t c, const uint8_t *p, size_t n)
{
    static const CrcTables t = makeCrcTables();
    // Little-endian loads, like ByteWriter: byte 0 of each word lands in
    // the low bits, where the reflected CRC consumes it first.
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo, hi;
        std::memcpy(&lo, p, sizeof lo);
        std::memcpy(&hi, p + 4, sizeof hi);
        lo ^= c;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#ifdef SURF_CRC32_CLMUL

/** x.lo * k.lo ^ x.hi * k.hi ^ y over GF(2): one 128-bit fold of `x`
 *  across the distance `k` encodes, onto the block `y` found there. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
clmulFold(__m128i x, __m128i k, __m128i y)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         y);
}

/**
 * CRC state after `n` bytes (n >= 64, a multiple of 16) with carry-less
 * multiplies (Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction", Intel 2009): four 128-bit
 * lanes fold 64 bytes per step, fold into one lane, the lane folds the
 * remaining 16-byte blocks, and a Barrett reduction brings the 128-bit
 * remainder down to the 32-bit state. The constants are x^k mod P for
 * the reflected polynomial, bit-reversed and shifted left by one.
 */
__attribute__((target("pclmul,sse4.1"))) uint32_t
crc32ClmulState(uint32_t c, const uint8_t *p, size_t n)
{
    const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    const auto at = [p](size_t i) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i));
    };

    __m128i x0 =
        _mm_xor_si128(at(0), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = at(16), x2 = at(32), x3 = at(48);
    size_t i = 64;
    for (; i + 64 <= n; i += 64) {
        x0 = clmulFold(x0, k512, at(i));
        x1 = clmulFold(x1, k512, at(i + 16));
        x2 = clmulFold(x2, k512, at(i + 32));
        x3 = clmulFold(x3, k512, at(i + 48));
    }
    x0 = clmulFold(x0, k128, x1);
    x0 = clmulFold(x0, k128, x2);
    x0 = clmulFold(x0, k128, x3);
    for (; i < n; i += 16)
        x0 = clmulFold(x0, k128, at(i));

    // 128 -> 96 -> 64 bits, then Barrett: q = (r mod x^32) * mu,
    // r ^= (q mod x^32) * P leaves the state in bits 32..63.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k128, 0x10));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64,
                                            0x00));
    __m128i q =
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif // SURF_CRC32_CLMUL

} // namespace

uint32_t
crc32SliceBy8(const void *data, size_t n, uint32_t seed)
{
    return crc32SliceBy8State(seed ^ 0xFFFFFFFFu,
                              static_cast<const uint8_t *>(data), n) ^
           0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t n, uint32_t seed)
{
    uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
#ifdef SURF_CRC32_CLMUL
    static const bool clmul = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    if (clmul && n >= 64) {
        const size_t blocks = n & ~size_t{15};
        c = crc32ClmulState(c, p, blocks);
        p += blocks;
        n -= blocks;
    }
#endif
    return crc32SliceBy8State(c, p, n) ^ 0xFFFFFFFFu;
}

UniqueFd::~UniqueFd()
{
    if (fd_ >= 0)
        ::close(fd_);
}

SnapshotWriter::SnapshotWriter(const std::string &path,
                               const FaultInjector *inject, uint64_t faultSalt)
    : path_(path), tmp_(tempPathFor(path)),
      fd_(::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)),
      inject_(inject), fault_salt_(faultSalt)
{
    if (fd_.get() < 0)
        status_ = ioError("snapshot: cannot create", tmp_);
    // Streaming reuses one flush's worth plus the largest record.
    if (!inject_)
        buf_.reserve(2 * kSnapshotStreamBytes);
    ByteWriter w(buf_);
    w.bytes(kMagic, sizeof kMagic);
    w.u32(kSnapshotFormatVersion);
    w.u32(kSnapshotAbiVersion);
    w.u32(crc32(buf_.data(), buf_.size()));
}

SnapshotWriter::~SnapshotWriter()
{
    if (fd_.get() >= 0)
        ::unlink(tmp_.c_str()); // unfinished: the target stays as it was
}

std::string &
SnapshotWriter::beginRecord(uint8_t type)
{
    SURF_ASSERT(!in_record_, "beginRecord without endRecord");
    in_record_ = true;
    record_start_ = buf_.size();
    // type u8 | length u64 (patched by endRecord) | payload follows.
    ByteWriter w(buf_);
    w.u8(type);
    w.u64(0);
    return buf_;
}

void
SnapshotWriter::endRecord()
{
    SURF_ASSERT(in_record_, "endRecord without beginRecord");
    in_record_ = false;
    const uint64_t len = buf_.size() - record_start_ - (1 + 8);
    std::memcpy(&buf_[record_start_ + 1], &len, sizeof len);
    const uint32_t crc =
        crc32(buf_.data() + record_start_, buf_.size() - record_start_);
    ByteWriter(buf_).u32(crc);
    if (!inject_ && buf_.size() >= kSnapshotStreamBytes)
        flush();
}

void
SnapshotWriter::flush()
{
    if (status_.ok() && !writeAll(fd_.get(), buf_.data(), buf_.size()))
        status_ = ioError("snapshot: write failed on", tmp_);
#ifdef __linux__
    // Start the device writeback of these bytes while the next records
    // encode, so the fsync in finish() finds little left to write; that
    // fsync still decides durability.
    if (status_.ok())
        ::sync_file_range(fd_.get(), static_cast<off_t>(flushed_),
                          static_cast<off_t>(buf_.size()),
                          SYNC_FILE_RANGE_WRITE);
#endif
    flushed_ += buf_.size();
    buf_.clear();
}

Status
SnapshotWriter::finish()
{
    SURF_ASSERT(!in_record_, "finish with a record still open");
    if (inject_)
        inject_->mutateSnapshotBytes(fault_salt_, buf_);
    flush();
    if (!status_.ok())
        return status_; // the destructor removes the temp file
    return commitTempFile(fd_.release(), tmp_, path_);
}

StatusOr<SnapshotReader>
SnapshotReader::openFile(const std::string &path)
{
    SnapshotReader out;
    out.fd_ = UniqueFd(::open(path.c_str(), O_RDONLY));
    if (out.fd_.get() < 0)
        return ioError("snapshot: cannot open", path);
    struct stat st;
    if (::fstat(out.fd_.get(), &st) != 0)
        return ioError("snapshot: cannot stat", path);
    out.size_ = static_cast<size_t>(std::max<off_t>(st.st_size, 0));
    char header[kHeaderBytes];
    if (out.size_ < kHeaderBytes ||
        !readAll(out.fd_.get(), header, kHeaderBytes))
        return Status::corruptSnapshot(
            "snapshot header truncated (" + std::to_string(out.size_) +
            " bytes)");
    if (Status s = checkHeader(header); !s.ok())
        return s;
    out.pos_ = kHeaderBytes;
    return out;
}

const char *
SnapshotReader::fetch(size_t have, size_t n)
{
    // The record buffer only grows, to the largest record, which next()
    // bounds by the file size before asking.
    if (bytes_.size() < n)
        bytes_.resize(n);
    if (!readAll(fd_.get(), bytes_.data() + have, n - have))
        return nullptr;
    return bytes_.data();
}

bool
SnapshotReader::next(uint8_t &type, ByteReader &payload)
{
    if (truncated_ || pos_ >= size_)
        return false;
    // type u8 | len u64 | payload | crc u32 — every length is checked
    // against the real remaining file size before any payload is touched.
    const size_t remain = size_ - pos_;
    const char *rec =
        remain < kSnapshotRecordFrameBytes ? nullptr : fetch(0, 1 + 8);
    if (!rec) {
        truncated_ = true; // torn mid-frame
        return false;
    }
    ByteReader frame(rec, 1 + 8);
    type = frame.u8();
    const uint64_t len = frame.u64();
    if (len > remain - kSnapshotRecordFrameBytes) {
        truncated_ = true; // length field overruns the file
        return false;
    }
    const size_t framed = 1 + 8 + static_cast<size_t>(len);
    rec = fetch(1 + 8, framed + 4);
    if (!rec) {
        truncated_ = true; // the file shrank under the reader
        return false;
    }
    ByteReader tail(rec + framed, 4);
    if (tail.u32() != crc32(rec, framed)) {
        truncated_ = true; // flipped bit or torn tail
        return false;
    }
    payload = ByteReader(rec + 1 + 8, static_cast<size_t>(len));
    pos_ += framed + 4;
    ++records_;
    return true;
}

} // namespace surf
