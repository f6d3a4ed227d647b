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
 * The writer frames each record in place in its one file buffer (type
 * and a placeholder length go in first, the payload is encoded straight
 * after them, then the length is patched and the CRC appended), and
 * finish() writes that buffer as is: a save touches each byte about
 * once. Loads read the file into one buffer sized from fstat and decode
 * records as views into it.
 *
 * Fault injection (faultinject/fault_plan.hh `snap.*` clauses) mutates
 * a copy of the finished byte buffer right before it hits the disk —
 * the only case in which finish() copies: deterministic torn-write
 * truncation, seeded single-bit flips, and a stale version stamp — so
 * every recovery path is replayable bit-for-bit.
 */

#ifndef SURF_PERSIST_SNAPSHOT_HH
#define SURF_PERSIST_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <string>
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

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of a byte range, eight
 *  bytes per step (slice-by-8); chain calls by passing the previous
 *  result as `seed`. */
uint32_t crc32(const void *data, size_t n, uint32_t seed = 0);

/**
 * Write `bytes` to `path` atomically: temp file in the same directory,
 * write, fsync, rename over `path`, fsync the directory. On any failure
 * the temp file is unlinked and the previous `path` contents (if any)
 * are untouched.
 */
Status atomicWriteFile(const std::string &path, const std::string &bytes);

/** Read a whole file into a buffer sized once from fstat. A missing
 *  file is NOT_FOUND-shaped: callers treat it as "no snapshot yet",
 *  which is kDataLoss here to keep the code set small — the loader maps
 *  it to a silent cold start. */
StatusOr<std::string> readFileBytes(const std::string &path);

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
 * Buffered snapshot writer: the header and every record are framed in
 * place in one buffer. beginRecord() appends the record's type and a
 * placeholder length and hands out the buffer itself, so the payload is
 * encoded straight into its final position; endRecord() patches the
 * length and appends the CRC. finish() writes the buffer atomically
 * without copying it. An optional FaultInjector mutates a copy of the
 * finished buffer first — torn truncation, seeded bit flips, a stale
 * version stamp — which is how the corruption-recovery tests and the
 * corrupted-snapshot CI smoke manufacture their inputs deterministically.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    /** Begin a record of `type`; append its payload to the returned
     *  buffer (through a ByteWriter), then call endRecord(). */
    std::string &beginRecord(uint8_t type);
    void endRecord();

    /** Bytes accumulated so far (header + records, the open one too). */
    size_t bytesBuffered() const { return buf_.size(); }

    /**
     * Seal and atomically write the snapshot. `inject` (nullable)
     * applies the plan's snap.* faults to a copy of the final buffer;
     * `faultSalt` decorrelates the decision streams of different
     * snapshot files.
     */
    Status finish(const std::string &path,
                  const FaultInjector *inject = nullptr,
                  uint64_t faultSalt = 0);

  private:
    std::string buf_;         ///< header + records, framed in place
    size_t record_start_ = 0; ///< offset of the open record's type byte
    bool in_record_ = false;
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
    /** Empty reader (StatusOr storage); use open() to get a real one. */
    SnapshotReader() = default;

    /** Validate the header of `bytes` (moved in). */
    static StatusOr<SnapshotReader> open(std::string bytes);

    /**
     * Fetch the next record. Returns true with type/payload set, or
     * false at end-of-file — clean or corrupt; check truncated().
     */
    bool next(uint8_t &type, ByteReader &payload);

    /** True once a torn or corrupt record ended iteration early. */
    bool truncated() const { return truncated_; }
    /** Total records handed out. */
    size_t recordsRead() const { return records_; }
    size_t fileBytes() const { return bytes_.size(); }

  private:
    std::string bytes_;
    size_t pos_ = 0;
    size_t records_ = 0;
    bool truncated_ = false;
};

} // namespace surf

#endif // SURF_PERSIST_SNAPSHOT_HH
