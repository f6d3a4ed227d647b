#include "persist/cache_snapshot.hh"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <unistd.h>

#include "persist/snapshot.hh"

namespace surf {

namespace {

enum RecordType : uint8_t
{
    kRecSegment = 1,
    kRecTimeline = 2,
};

constexpr uint8_t kMaxOp = static_cast<uint8_t>(Op::FrameProbe);
constexpr uint8_t kMaxBackend =
    static_cast<uint8_t>(MatchingBackend::SparseBlossom);

// Smallest encoding of one element of each counted list. A count is
// checked against remaining() / size before anything is reserved: a
// CRC-valid record that lies about a count is rejected, instead of
// asking the allocator for up to ~100x its own size in elements.
constexpr size_t kMinInstructionBytes = 1 + 8 + 4 + 8; // op arg aux nt
constexpr size_t kDemEdgeBytes = 8 + 8 + 8 + 1;        // a b p flipsObs
constexpr size_t kMinEpochBytes = 7 * 8 + 8;           // 7 u64 + segKey
constexpr size_t kRowHeaderBytes = 8 + 8;              // src len
constexpr size_t kRowEntryBytes = 4 + 1;               // dist f32 + par

void
writeCircuit(ByteWriter &w, const Circuit &c)
{
    const auto &instrs = c.instructions();
    w.u64(instrs.size());
    for (const Instruction &ins : instrs) {
        w.u8(static_cast<uint8_t>(ins.op));
        w.f64(ins.arg);
        w.u32(ins.aux);
        w.u64(ins.targets.size());
        // Bulk copy: the in-memory u32s are the little-endian encoding.
        w.bytes(ins.targets.data(), ins.targets.size() * sizeof(uint32_t));
    }
}

/** Replay a serialized circuit through Circuit::appendRaw, which
 *  re-validates every instruction against the bookkeeping built so far —
 *  a detector referencing a future measurement, an odd pairwise list or
 *  a bad noise probability rejects the record, never aborts. A first
 *  pass over the instruction headers sums the target counts, so the
 *  circuit reserves its arrays once and each target list is copied
 *  once, from the record bytes into the circuit. */
bool
readCircuit(ByteReader &r, Circuit &out)
{
    const uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining() / kMinInstructionBytes)
        return false;
    // Header fields are read and bound-checked in both passes.
    const auto header = [](ByteReader &in, uint8_t &op, double &arg,
                           uint32_t &aux, uint64_t &nt) {
        op = in.u8();
        arg = in.f64();
        aux = in.u32();
        nt = in.u64();
        return in.ok() && op <= kMaxOp &&
               nt <= in.remaining() / sizeof(uint32_t);
    };
    uint8_t op;
    double arg;
    uint32_t aux;
    uint64_t nt, total = 0;
    ByteReader scan = r;
    for (uint64_t i = 0; i < n; ++i) {
        if (!header(scan, op, arg, aux, nt))
            return false;
        scan.bytes(static_cast<size_t>(nt) * sizeof(uint32_t));
        total += nt;
    }
    out.reserve(static_cast<size_t>(n), static_cast<size_t>(total));
    for (uint64_t i = 0; i < n; ++i) {
        if (!header(r, op, arg, aux, nt))
            return false;
        const char *targets =
            r.bytes(static_cast<size_t>(nt) * sizeof(uint32_t));
        if (!out.appendRaw(static_cast<Op>(op), arg, aux, targets,
                           static_cast<size_t>(nt)))
            return false;
    }
    return true;
}

void
writeDem(ByteWriter &w, const DetectorErrorModel &dem)
{
    w.u64(dem.numDetectors);
    w.bytes(dem.detectorTag.data(), dem.detectorTag.size());
    for (int t = 0; t < 2; ++t) {
        w.u64(dem.edges[t].size());
        for (const DemEdge &e : dem.edges[t]) {
            w.i64(e.a);
            w.i64(e.b);
            w.f64(e.p);
            w.u8(e.flipsObs ? 1 : 0);
        }
    }
    w.f64(dem.undetectableObsProb);
    w.u64(dem.decomposedComponents);
}

/** Read + validate a DEM. The decoding-graph constructors assert on
 *  malformed models (foreign detector ids), so every id, tag byte and
 *  probability is checked here before any constructor runs. */
bool
readDem(ByteReader &r, DetectorErrorModel &dem)
{
    const uint64_t n_det = r.u64();
    if (!r.ok() || n_det > r.remaining())
        return false;
    dem.numDetectors = static_cast<size_t>(n_det);
    const char *tags = r.bytes(static_cast<size_t>(n_det));
    if (!tags)
        return false;
    dem.detectorTag.resize(static_cast<size_t>(n_det));
    for (uint64_t i = 0; i < n_det; ++i) {
        const auto tag = static_cast<uint8_t>(tags[i]);
        if (tag > 1)
            return false;
        dem.detectorTag[i] = tag;
    }
    for (int t = 0; t < 2; ++t) {
        const uint64_t n_edges = r.u64();
        if (!r.ok() || n_edges > r.remaining() / kDemEdgeBytes)
            return false;
        dem.edges[t].reserve(static_cast<size_t>(n_edges));
        for (uint64_t i = 0; i < n_edges; ++i) {
            DemEdge e;
            const int64_t a = r.i64();
            const int64_t b = r.i64();
            e.p = r.f64();
            e.flipsObs = r.u8() != 0;
            if (!r.ok())
                return false;
            // Endpoints: boundary (-1) or a detector of this graph's tag.
            for (int64_t id : {a, b}) {
                if (id < -1 || id >= static_cast<int64_t>(n_det))
                    return false;
                if (id >= 0 && dem.detectorTag[static_cast<size_t>(id)] !=
                                   static_cast<uint8_t>(t))
                    return false;
            }
            if (!(std::isfinite(e.p) && e.p >= 0.0 && e.p <= 1.0))
                return false;
            e.a = static_cast<int>(a);
            e.b = static_cast<int>(b);
            dem.edges[t].push_back(e);
        }
    }
    dem.undetectableObsProb = r.f64();
    const uint64_t decomposed = r.u64();
    if (!r.ok() ||
        !(std::isfinite(dem.undetectableObsProb) &&
          dem.undetectableObsProb >= 0.0 && dem.undetectableObsProb <= 1.0))
        return false;
    dem.decomposedComponents = static_cast<size_t>(decomposed);
    return true;
}

struct SavedRow
{
    int src;
    DecodingGraph::Row row;
};

void
writeSegmentRecord(SnapshotWriter &snap, const std::string &key,
                   const CachedSegment &seg, double cost, uint64_t &rowsOut)
{
    // Collect the resident rows once (a single coherent pass, so the
    // count matches the rows written), then write. Published rows live
    // as long as the graph, so pointers suffice.
    const DecodingGraph &g = seg.mwpm->graph();
    std::vector<std::pair<int, const DecodingGraph::Row *>> rows;
    g.forEachResidentRow([&](int src, const DecodingGraph::Row &row) {
        rows.emplace_back(src, &row);
    });
    rowsOut += rows.size();

    std::string &payload = snap.beginRecord(kRecSegment);
    ByteWriter w(payload);
    w.str(key);
    w.u8(g.tag());
    w.u8(static_cast<uint8_t>(g.backend()));
    writeDem(w, seg.dem);
    w.u64(g.csrDigest());
    w.u64(rows.size());
    for (const auto &[src, row] : rows) {
        w.u64(static_cast<uint64_t>(src));
        w.u64(row->dist.size());
        w.bytes(row->dist.data(), row->dist.size() * sizeof(float));
        w.bytes(row->par.data(), row->par.size());
    }
    w.f64(cost);
    snap.endRecord();
}

/** Restore one segment record: key, tag, backend, DEM, CSR digest, rows,
 *  cost. False on rejection (nothing inserted). */
bool
restoreSegmentRecord(ByteReader &r, DeformedCodeCache &cache,
                     SnapshotRestoreStats &stats)
{
    const std::string key = r.str();
    const uint8_t tag = r.u8();
    const uint8_t backend = r.u8();
    if (!r.ok() || key.empty() || tag > 1 || backend > kMaxBackend)
        return false;

    CachedSegment cs;
    if (!readDem(r, cs.dem))
        return false;

    const uint64_t digest = r.u64();
    const uint64_t n_rows = r.u64();
    size_t n_tag_nodes = 0;
    for (uint8_t t : cs.dem.detectorTag)
        n_tag_nodes += t == tag;
    const uint64_t row_len = n_tag_nodes + 1;
    if (!r.ok() ||
        n_rows > r.remaining() / (kRowHeaderBytes + row_len * kRowEntryBytes))
        return false;

    std::vector<SavedRow> rows;
    rows.reserve(static_cast<size_t>(n_rows));
    for (uint64_t i = 0; i < n_rows; ++i) {
        const uint64_t src = r.u64();
        const uint64_t len = r.u64();
        if (!r.ok() || len != row_len || src >= n_tag_nodes ||
            len * kRowEntryBytes > r.remaining())
            return false;
        SavedRow sr;
        sr.src = static_cast<int>(src);
        const size_t n = static_cast<size_t>(len);
        sr.row.dist.resize(n);
        std::memcpy(sr.row.dist.data(), r.bytes(n * sizeof(float)),
                    n * sizeof(float));
        const char *par = r.bytes(n);
        sr.row.par.assign(par, par + n);
        rows.push_back(std::move(sr));
    }
    const double cost = r.f64();
    if (!r.ok() || !(std::isfinite(cost) && cost >= 0.0))
        return false;

    // Rebuild the decoders from the validated DEM (O(edges), the cheap
    // part the sparse backends made cheap), then verify the rebuilt
    // graph's CSR digest against the recorded one: a payload that passed
    // its CRC but describes a different code — the semantic-signature
    // mismatch — is rejected here, before any row is trusted.
    cs.mwpm = std::make_unique<MwpmDecoder>(
        cs.dem, tag, nullptr, static_cast<MatchingBackend>(backend));
    cs.uf = std::make_unique<UnionFindDecoder>(cs.dem, tag);
    if (cs.mwpm->graph().csrDigest() != digest)
        return false;
    for (SavedRow &sr : rows)
        if (cs.mwpm->graph().restoreRow(sr.src, std::move(sr.row)))
            ++stats.rows;

    if (cache.restoreSegment(key, std::move(cs), cost))
        ++stats.segments;
    return true;
}

void
writeTimelineRecord(SnapshotWriter &snap, const std::string &key,
                    const CachedTimeline &tl, double cost)
{
    std::string &payload = snap.beginRecord(kRecTimeline);
    ByteWriter w(payload);
    w.str(key);
    w.u8(tl.alive ? 1 : 0);
    writeCircuit(w, tl.circuit);
    w.u64(tl.epochs.size());
    for (const CachedTimelineEpoch &ep : tl.epochs) {
        w.u64(ep.startRound);
        w.u64(ep.rounds);
        w.u64(ep.distX);
        w.u64(ep.distZ);
        w.u64(ep.activeDefects);
        w.u64(ep.detBegin);
        w.u64(ep.detEnd);
        w.str(ep.segKey);
    }
    w.f64(cost);
    snap.endRecord();
}

bool
restoreTimelineRecord(ByteReader &r, DeformedCodeCache &cache,
                      SnapshotRestoreStats &stats)
{
    const std::string key = r.str();
    const uint8_t alive = r.u8();
    if (!r.ok() || key.empty() || alive > 1)
        return false;
    CachedTimeline tl;
    tl.alive = alive != 0;
    if (!readCircuit(r, tl.circuit))
        return false;
    const uint64_t n_epochs = r.u64();
    if (!r.ok() || n_epochs > r.remaining() / kMinEpochBytes)
        return false;
    if (!tl.alive && n_epochs != 0)
        return false; // dead timelines carry no epochs by construction
    tl.epochs.reserve(static_cast<size_t>(n_epochs));
    size_t prev_end = 0;
    for (uint64_t i = 0; i < n_epochs; ++i) {
        CachedTimelineEpoch ep;
        ep.startRound = r.u64();
        ep.rounds = r.u64();
        ep.distX = static_cast<size_t>(r.u64());
        ep.distZ = static_cast<size_t>(r.u64());
        ep.activeDefects = static_cast<size_t>(r.u64());
        ep.detBegin = static_cast<size_t>(r.u64());
        ep.detEnd = static_cast<size_t>(r.u64());
        ep.segKey = r.str();
        if (!r.ok() || ep.segKey.empty())
            return false;
        // The decode loop slices the concatenated fired list by these
        // ranges: they must be monotone and inside the circuit.
        if (ep.detBegin < prev_end || ep.detEnd < ep.detBegin ||
            ep.detEnd > tl.circuit.numDetectors())
            return false;
        prev_end = ep.detEnd;
        // Re-pin the segment through the cache (segments restore first);
        // a missing or mismatched segment rejects the whole timeline.
        ep.seg = cache.peekSegment(ep.segKey);
        if (!ep.seg ||
            ep.seg->dem.numDetectors != ep.detEnd - ep.detBegin)
            return false;
        tl.epochs.push_back(std::move(ep));
    }
    const double cost = r.f64();
    if (!r.ok() || !(std::isfinite(cost) && cost >= 0.0))
        return false;
    if (cache.restoreTimeline(key, std::move(tl), cost))
        ++stats.timelines;
    return true;
}

} // namespace

bool
snapshotFileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

StatusOr<SnapshotSaveStats>
saveCacheSnapshot(const DeformedCodeCache &cache, const std::string &path,
                  const FaultInjector *inject, uint64_t faultSalt)
{
    SnapshotSaveStats stats;
    SnapshotWriter snap(path, inject, faultSalt);
    // Segments first: timeline restore resolves its epoch pins against
    // segments already in the cache, in one forward pass.
    cache.forEachSegment([&](const std::string &key, const CachedSegment &seg,
                             double cost) {
        writeSegmentRecord(snap, key, seg, cost, stats.rows);
        ++stats.segments;
    });
    cache.forEachTimeline([&](const std::string &key,
                              const CachedTimeline &tl, double cost) {
        // A timeline whose pinned segment lost its own cache entry (an
        // eviction orphan) would dangle on restore — skip it; the next
        // run rebuilds that timeline against restored segments.
        for (const CachedTimelineEpoch &ep : tl.epochs)
            if (ep.segKey.empty() || !cache.peekSegment(ep.segKey)) {
                ++stats.skippedTimelines;
                return;
            }
        writeTimelineRecord(snap, key, tl, cost);
        ++stats.timelines;
    });
    stats.fileBytes = snap.bytesWritten();
    if (Status s = snap.finish(); !s.ok())
        return s;
    return stats;
}

StatusOr<SnapshotRestoreStats>
loadCacheSnapshot(DeformedCodeCache &cache, const std::string &path)
{
    StatusOr<SnapshotReader> reader = SnapshotReader::openFile(path);
    if (!reader.ok())
        return reader.status();
    SnapshotReader &snap = reader.value();

    SnapshotRestoreStats stats;
    stats.fileBytes = snap.fileBytes();
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    while (snap.next(type, payload)) {
        bool ok;
        switch (type) {
          case kRecSegment:
            ok = restoreSegmentRecord(payload, cache, stats);
            break;
          case kRecTimeline:
            ok = restoreTimelineRecord(payload, cache, stats);
            break;
          default:
            ok = false; // unknown record type: a future writer's data
            break;
        }
        if (!ok)
            ++stats.rejectedRecords;
    }
    stats.truncated = snap.truncated();
    return stats;
}

} // namespace surf
