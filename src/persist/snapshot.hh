/**
 * @file
 * Crash-safe snapshot container: the low-level byte format shared by the
 * deformed-code cache snapshot and the scenario run checkpoint. Design
 * goals, in order: (1) a torn, flipped or stale file can never produce a
 * wrong answer — only a rejected record or a rejected file, both of which
 * the callers turn into a cold rebuild; (2) writes are atomic on POSIX
 * (write to a temp file, fsync, rename over the target, fsync the
 * directory), so a reader never observes a half-written snapshot under a
 * crash-free filesystem; (3) corruption detection is local — every record
 * carries its own CRC32, so a flipped bit invalidates one record and the
 * valid prefix before it stays usable.
 *
 * File layout:
 *   header:  magic "SURFSNP1" (8) | format u32 | abi u32 | crc32 u32
 *   record:  type u8 | payload length u64 | payload | crc32 u32
 *            (the CRC covers type + length + payload)
 *
 * The format version changes when this container layout changes; the ABI
 * version changes whenever any serialized payload struct changes shape.
 * A reader that sees an unknown version rejects the whole file with
 * CORRUPT_SNAPSHOT — version skew degrades to a cold build, by design.
 *
 * The writer frames each record in place in its buffer (type and a
 * placeholder length go in first, the payload is encoded straight after
 * them, then the length is patched and the CRC appended). The writer
 * streams: finished records leave the buffer for the temp file once it
 * holds kSnapshotStreamBytes, so a save touches about one record of
 * memory however large the file, and each byte once. The reader streams
 * the same way, one record at a time through a buffer reused across
 * records.
 *
 * Fault injection (faultinject/fault_plan.hh `snap.*` clauses) makes the
 * writer buffer the whole file and mutates it right before it hits the
 * disk — deterministic torn-write truncation, seeded single-bit flips,
 * and a stale version stamp — so every recovery path is replayable
 * bit-for-bit.
 */

#ifndef SURF_PERSIST_SNAPSHOT_HH
#define SURF_PERSIST_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace surf {

class FaultInjector;

/** Container format version (layout of header/records). */
inline constexpr uint32_t kSnapshotFormatVersion = 1;
/** Payload ABI version: bump when any serialized struct changes.
 *  v2: DegradationLedger gained the three fab* counters.
 *  v3: memoized rows are full searches and carry no radius (v2 rows
 *      stop at 2 d(src, B)).
 *  v4: segment records drop the standalone circuit and the retired
 *      row-budget slot (key, tag, backend, DEM, CSR digest, rows, cost). */
inline constexpr uint32_t kSnapshotAbiVersion = 4;
/** Header size: magic (8) | format u32 | abi u32 | header crc32. */
inline constexpr size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 4;
/** Record framing around a payload: type u8 | length u64 | crc32 u32. */
inline constexpr size_t kSnapshotRecordFrameBytes = 1 + 8 + 4;
/** A streaming SnapshotWriter writes its buffer out once it holds this
 *  many bytes of finished records. */
inline constexpr size_t kSnapshotStreamBytes = size_t{1} << 20;

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of a byte range; chain
 *  calls by passing the previous result as `seed`. On x86-64 CPUs with
 *  PCLMULQDQ (checked once at run time) ranges of 64 bytes or more fold
 *  16 bytes per carry-less multiply, with a Barrett reduction to 32
 *  bits; shorter ranges, the last 0-15 bytes and other CPUs take
 *  crc32SliceBy8(). Both give the same value for every input. */
uint32_t crc32(const void *data, size_t n, uint32_t seed = 0);

/** The portable kernel behind crc32(): eight bytes per step through
 *  eight 256-entry tables (slice-by-8), same values and seed contract.
 *  Callable directly so tests cover it on CPUs that take the PCLMULQDQ
 *  path. */
uint32_t crc32SliceBy8(const void *data, size_t n, uint32_t seed = 0);

/** An owned POSIX file descriptor (-1: none), closed on destruction. */
class UniqueFd
{
  public:
    UniqueFd() = default;
    explicit UniqueFd(int fd) : fd_(fd) {}
    UniqueFd(UniqueFd &&o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
    UniqueFd &
    operator=(UniqueFd &&o) noexcept
    {
        std::swap(fd_, o.fd_);
        return *this;
    }
    ~UniqueFd();

    int get() const { return fd_; }
    /** Give up ownership without closing. */
    int release() { return std::exchange(fd_, -1); }

  private:
    int fd_ = -1;
};

/** Append little-endian scalars / length-prefixed blobs to a buffer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out) : out_(out) {}

    void
    u8(uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }
    void
    u32(uint32_t v)
    {
        appendLe(&v, sizeof v);
    }
    void
    u64(uint64_t v)
    {
        appendLe(&v, sizeof v);
    }
    void
    i32(int32_t v)
    {
        appendLe(&v, sizeof v);
    }
    void
    i64(int64_t v)
    {
        appendLe(&v, sizeof v);
    }
    void
    f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }
    void
    bytes(const void *data, size_t n)
    {
        out_.append(static_cast<const char *>(data), n);
    }

  private:
    void
    appendLe(const void *data, size_t n)
    {
        // Little-endian hosts only (the toolchains this repo targets);
        // a big-endian port would byte-swap here.
        out_.append(static_cast<const char *>(data), n);
    }

    std::string &out_;
};

/**
 * Bounds-checked reader over a byte view. Every accessor checks the
 * remaining length first; once a read overruns, ok() latches false and
 * every later accessor returns zero values — so record decoders can read
 * a whole struct and test ok() once, with no UB on truncated payloads.
 */
class ByteReader
{
  public:
    ByteReader(const char *data, size_t n) : data_(data), size_(n) {}

    bool ok() const { return ok_; }
    size_t remaining() const { return size_ - pos_; }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    uint32_t
    u32()
    {
        uint32_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    int32_t
    i32()
    {
        int32_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    int64_t
    i64()
    {
        int64_t v = 0;
        take(&v, sizeof v);
        return v;
    }
    float
    f32()
    {
        const uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    std::string
    str()
    {
        const uint64_t n = u64();
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return {};
        }
        std::string s(data_ + pos_, static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }
    /** Raw view of `n` bytes (nullptr + !ok() on overrun). */
    const char *
    bytes(size_t n)
    {
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return nullptr;
        }
        const char *p = data_ + pos_;
        pos_ += n;
        return p;
    }

  private:
    void
    take(void *out, size_t n)
    {
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    const char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Snapshot writer: the header and every record are framed in place in
 * one buffer. beginRecord() appends the record's type and a placeholder
 * length and hands out the buffer itself, so the payload is encoded
 * straight into its final position; endRecord() patches the length and
 * appends the CRC. The file goes to a temp file beside `path`, and
 * finish() makes it visible under `path` atomically (fsync, rename,
 * fsync the directory); a writer destroyed unfinished removes its temp
 * file and leaves `path` as it was.
 *
 * Without a FaultInjector the writer streams: the buffer holds about
 * one record, and endRecord() writes the finished records out once they
 * fill kSnapshotStreamBytes, starting their device writeback (Linux) so
 * the closing fsync overlaps the encoding. With one, it buffers the
 * whole file so that finish() can apply the plan's snap.* faults to it
 * (torn truncation, seeded bit flips, a stale version stamp), which is
 * how the corruption-recovery tests and the corrupted-snapshot CI smoke
 * manufacture their inputs deterministically.
 */
class SnapshotWriter
{
  public:
    /** Write to `path`; its temp file is created now (a failure shows at
     *  finish()). `inject` (nullable) selects the buffered mode;
     *  `faultSalt` decorrelates the fault decision streams of different
     *  snapshot files. */
    explicit SnapshotWriter(const std::string &path,
                            const FaultInjector *inject = nullptr,
                            uint64_t faultSalt = 0);
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;
    ~SnapshotWriter();

    /** Begin a record of `type`; append its payload to the returned
     *  buffer (through a ByteWriter), then call endRecord(). */
    std::string &beginRecord(uint8_t type);
    void endRecord();

    /** Bytes of the file so far (header + records, the open one too). */
    size_t bytesWritten() const { return flushed_ + buf_.size(); }

    /** Seal the snapshot (applying the injector's faults, if any) and
     *  commit it atomically to the constructor's path. */
    Status finish();

  private:
    /** Write the buffer out to the temp file and empty it. */
    void flush();

    std::string path_;
    std::string tmp_;         ///< temp file beside path_
    UniqueFd fd_;
    const FaultInjector *inject_;
    uint64_t fault_salt_;
    std::string buf_;         ///< unflushed header + records, in place
    size_t record_start_ = 0; ///< offset of the open record's type byte
    bool in_record_ = false;
    size_t flushed_ = 0;      ///< bytes already in the temp file
    Status status_;           ///< first create/write error, for finish()
};

/**
 * Snapshot reader: validates the header eagerly (magic, versions, header
 * CRC — any mismatch is CORRUPT_SNAPSHOT for the whole file), then hands
 * out records one at a time. A record whose length field overruns the
 * file or whose CRC mismatches ends iteration; the records before it
 * remain trustworthy (each carried its own CRC). truncated() reports
 * whether iteration ended early, so callers can count the recovery.
 */
class SnapshotReader
{
  public:
    /** Empty reader (StatusOr storage); use openFile() to get a real one. */
    SnapshotReader() = default;

    /** Validate the header of the file at `path` and stream its records:
     *  next() reads one record at a time into a buffer reused across
     *  records. A missing or unreadable file is kDataLoss. */
    static StatusOr<SnapshotReader> openFile(const std::string &path);

    /**
     * Fetch the next record. Returns true with type/payload set, or
     * false at end-of-file — clean or corrupt; check truncated(). The
     * payload view is valid until the next call.
     */
    bool next(uint8_t &type, ByteReader &payload);

    /** True once a torn or corrupt record ended iteration early. */
    bool truncated() const { return truncated_; }
    /** Total records handed out. */
    size_t recordsRead() const { return records_; }
    size_t fileBytes() const { return size_; }

  private:
    /** The first `n` bytes of the record at file offset pos_, read into
     *  the record buffer after the `have` of them it already holds;
     *  nullptr past EOF. */
    const char *fetch(size_t have, size_t n);

    std::string bytes_; ///< the current record
    UniqueFd fd_;
    size_t size_ = 0;   ///< file size at openFile()
    size_t pos_ = 0;
    size_t records_ = 0;
    bool truncated_ = false;
};

} // namespace surf

#endif // SURF_PERSIST_SNAPSHOT_HH
