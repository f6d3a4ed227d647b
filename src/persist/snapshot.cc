#include "persist/snapshot.hh"

#include <array>
#include <cerrno>
#include <cstdio>

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

} // namespace

uint32_t
crc32(const void *data, size_t n, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
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
    return c ^ 0xFFFFFFFFu;
}

Status
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    // Temp file in the target's directory so the rename stays within one
    // filesystem (rename across filesystems is not atomic).
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return ioError("snapshot: cannot create", tmp);
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return ioError("snapshot: write failed on", tmp);
        }
        off += static_cast<size_t>(n);
    }
    // fsync before rename: the rename must never become visible ahead of
    // the data it points at, or a crash between the two would leave a
    // torn file under the final name.
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return ioError("snapshot: fsync failed on", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return ioError("snapshot: close failed on", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return ioError("snapshot: rename failed onto", path);
    }
    // Persist the directory entry too; failure here is not fatal to
    // correctness (the data is durable, the name may revert on crash).
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return Status::okStatus();
}

StatusOr<std::string>
readFileBytes(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return ioError("snapshot: cannot open", path);
    // One allocation sized from fstat, plus a spare byte so the read
    // that sees EOF has room and the buffer never regrows. A file that
    // grew since the fstat still reads whole: the buffer doubles.
    struct stat st;
    const size_t hint = ::fstat(fd, &st) == 0 && st.st_size > 0
                            ? static_cast<size_t>(st.st_size)
                            : 0;
    std::string out(hint + 1, '\0');
    size_t len = 0;
    for (;;) {
        if (len == out.size())
            out.resize(2 * out.size());
        const ssize_t n = ::read(fd, out.data() + len, out.size() - len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return ioError("snapshot: read failed on", path);
        }
        if (n == 0)
            break;
        len += static_cast<size_t>(n);
    }
    ::close(fd);
    out.resize(len);
    return out;
}

SnapshotWriter::SnapshotWriter()
{
    ByteWriter w(buf_);
    w.bytes(kMagic, sizeof kMagic);
    w.u32(kSnapshotFormatVersion);
    w.u32(kSnapshotAbiVersion);
    w.u32(crc32(buf_.data(), buf_.size()));
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
}

Status
SnapshotWriter::finish(const std::string &path, const FaultInjector *inject,
                       uint64_t faultSalt)
{
    SURF_ASSERT(!in_record_, "finish with a record still open");
    if (!inject)
        return atomicWriteFile(path, buf_);
    // Injected faults mutate a copy; the writer's own bytes stay sealed.
    std::string bytes = buf_;
    inject->mutateSnapshotBytes(faultSalt, bytes);
    return atomicWriteFile(path, bytes);
}

StatusOr<SnapshotReader>
SnapshotReader::open(std::string bytes)
{
    if (bytes.size() < kHeaderBytes)
        return Status::corruptSnapshot(
            "snapshot header truncated (" + std::to_string(bytes.size()) +
            " bytes)");
    ByteReader r(bytes.data(), kHeaderBytes);
    const char *magic = r.bytes(sizeof kMagic);
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        return Status::corruptSnapshot("snapshot magic mismatch");
    const uint32_t format = r.u32();
    const uint32_t abi = r.u32();
    const uint32_t stored_crc = r.u32();
    const uint32_t actual_crc = crc32(bytes.data(), kHeaderBytes - 4);
    if (stored_crc != actual_crc)
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
    SnapshotReader out;
    out.bytes_ = std::move(bytes);
    out.pos_ = kHeaderBytes;
    return out;
}

bool
SnapshotReader::next(uint8_t &type, ByteReader &payload)
{
    if (truncated_ || pos_ >= bytes_.size())
        return false;
    // type u8 | len u64 | payload | crc u32 — every length is checked
    // against the real remaining file size before any payload is touched.
    const size_t remain = bytes_.size() - pos_;
    if (remain < 1 + 8 + 4) {
        truncated_ = true; // torn mid-frame
        return false;
    }
    ByteReader frame(bytes_.data() + pos_, remain);
    type = frame.u8();
    const uint64_t len = frame.u64();
    if (len > remain - (1 + 8 + 4)) {
        truncated_ = true; // length field overruns the file
        return false;
    }
    const size_t framed = 1 + 8 + static_cast<size_t>(len);
    const uint32_t actual = crc32(bytes_.data() + pos_, framed);
    ByteReader tail(bytes_.data() + pos_ + framed, 4);
    if (tail.u32() != actual) {
        truncated_ = true; // flipped bit or torn tail
        return false;
    }
    payload = ByteReader(bytes_.data() + pos_ + 1 + 8,
                         static_cast<size_t>(len));
    pos_ += framed + 4;
    ++records_;
    return true;
}

} // namespace surf
