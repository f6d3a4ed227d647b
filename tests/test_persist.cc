/**
 * @file
 * Tests for the warm-start persistence layer (src/persist): the
 * checksummed snapshot container, the DeformedCodeCache snapshot
 * round-trip, the paranoid loader's fuzz matrix (truncation at every
 * record boundary, single-bit flips, stale versions, semantic
 * mismatches, lying element counts — no crash, Status surfaced,
 * results bit-identical), byte identity with a checked-in snapshot, and
 * kill/resume checkpointing at several thread counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <unistd.h>

#include "crc_reference.hh"

#include "decode/memory_experiment.hh"
#include "decode/mwpm.hh"
#include "faultinject/fault_plan.hh"
#include "lattice/rotated.hh"
#include "persist/cache_snapshot.hh"
#include "persist/checkpoint.hh"
#include "persist/snapshot.hh"
#include "scenario/scenario_experiment.hh"
#include "sim/dem.hh"
#include "sim/frame.hh"
#include "sim/syndrome_circuit.hh"

namespace surf {
namespace {

/** Fresh temp directory, removed (best effort) on destruction. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/surf_persist_XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "/tmp";
    }
    ~TempDir()
    {
        // Only files we created live here; remove then rmdir.
        const std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] int rc = ::system(cmd.c_str());
    }
    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

FaultPlan
mustPlan(const std::string &spec)
{
    StatusOr<FaultPlan> plan = parseFaultPlan(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().str();
    return plan.ok() ? *plan : FaultPlan{};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Multi-epoch sampled scenario with several timelines (mirrors the
 *  fault-injection suite: this seed and rate guarantee deformation
 *  epochs, so the cache holds real segments and timelines). */
ScenarioConfig
sampledConfig()
{
    ScenarioConfig sc;
    sc.timeline.strategy = Strategy::SurfDeformer;
    sc.timeline.d = 5;
    sc.timeline.deltaD = 2;
    sc.timeline.horizonRounds = 60;
    sc.timeline.windowRounds = 10;
    sc.timeline.maxEpochRounds = 10;
    sc.defectModel.durationSec = 20e-6;
    sc.defectModel.regionDiameter = 2;
    sc.eventRateScale = 150000.0;
    sc.numTimelines = 4;
    sc.noise.p = 2e-3;
    sc.maxShotsPerTimeline = 128;
    sc.batchShots = 64;
    sc.seed = 99;
    return sc;
}

void
expectSameResults(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.totalEpochs, b.totalEpochs);
    EXPECT_EQ(a.deadTimelines, b.deadTimelines);
    ASSERT_EQ(a.timelines.size(), b.timelines.size());
    for (size_t t = 0; t < a.timelines.size(); ++t) {
        const TimelineStats &x = a.timelines[t];
        const TimelineStats &y = b.timelines[t];
        EXPECT_EQ(x.shots, y.shots) << "timeline " << t;
        EXPECT_EQ(x.failures, y.failures) << "timeline " << t;
        EXPECT_EQ(x.events, y.events) << "timeline " << t;
        EXPECT_EQ(x.dead, y.dead) << "timeline " << t;
        ASSERT_EQ(x.epochs.size(), y.epochs.size()) << "timeline " << t;
        for (size_t e = 0; e < x.epochs.size(); ++e) {
            EXPECT_EQ(x.epochs[e].shots, y.epochs[e].shots);
            EXPECT_EQ(x.epochs[e].mismatches, y.epochs[e].mismatches);
            EXPECT_EQ(x.epochs[e].rounds, y.epochs[e].rounds);
            EXPECT_EQ(x.epochs[e].numDetectors, y.epochs[e].numDetectors);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot container primitives.
// ---------------------------------------------------------------------

TEST(SnapshotContainer, ByteRoundTrip)
{
    std::string buf;
    ByteWriter w(buf);
    w.u8(7);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123LL);
    w.f32(1.5f);
    w.f64(2.25);
    w.str("hello");
    const uint8_t raw[3] = {1, 2, 3};
    w.bytes(raw, sizeof raw);

    ByteReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123LL);
    EXPECT_EQ(r.f32(), 1.5f);
    EXPECT_EQ(r.f64(), 2.25);
    EXPECT_EQ(r.str(), "hello");
    const char *got = r.bytes(sizeof raw);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(std::memcmp(got, raw, sizeof raw), 0);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);

    // Over-read latches !ok() instead of walking off the buffer.
    (void)r.u64();
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotContainer, WriterReaderRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("basic.snap");

    SnapshotWriter w(path);
    {
        std::string &payload = w.beginRecord(1);
        ByteWriter bw(payload);
        bw.u64(111);
        w.endRecord();
    }
    {
        std::string &payload = w.beginRecord(2);
        ByteWriter bw(payload);
        bw.str("second record");
        w.endRecord();
    }
    ASSERT_TRUE(w.finish().ok());

    StatusOr<SnapshotReader> reader = SnapshotReader::openFile(path);
    ASSERT_TRUE(reader.ok()) << reader.status().str();
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    ASSERT_TRUE(reader->next(type, payload));
    EXPECT_EQ(type, 1);
    EXPECT_EQ(payload.u64(), 111u);
    ASSERT_TRUE(reader->next(type, payload));
    EXPECT_EQ(type, 2);
    EXPECT_EQ(payload.str(), "second record");
    EXPECT_FALSE(reader->next(type, payload));
    EXPECT_FALSE(reader->truncated());
    EXPECT_EQ(reader->recordsRead(), 2u);
}

TEST(SnapshotContainer, HeaderValidation)
{
    TempDir dir;
    const std::string path = dir.file("hdr.snap");
    SnapshotWriter w(path);
    {
        std::string &payload = w.beginRecord(1);
        ByteWriter bw(payload);
        bw.u64(1);
        w.endRecord();
    }
    ASSERT_TRUE(w.finish().ok());
    const std::string good = slurp(path);
    ASSERT_GE(good.size(), kSnapshotHeaderBytes);
    // Each edited copy of the file is read back from disk.
    const std::string edited = dir.file("edited.snap");
    const auto openEdited = [&](const std::string &bytes) {
        spit(edited, bytes);
        return SnapshotReader::openFile(edited);
    };

    // Too short for a header.
    for (size_t n = 0; n < kSnapshotHeaderBytes; ++n) {
        StatusOr<SnapshotReader> r = openEdited(good.substr(0, n));
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kCorruptSnapshot);
    }

    // Bad magic.
    std::string bad = good;
    bad[0] ^= 0xff;
    EXPECT_EQ(openEdited(bad).status().code(), StatusCode::kCorruptSnapshot);

    // Version skew with a *recomputed* header CRC: must fail on the
    // version check, not the checksum (a well-formed alien file).
    bad = good;
    const uint32_t alien = 0xFFFFFFFFu;
    std::memcpy(&bad[8], &alien, sizeof alien);
    uint32_t crc = crc32(bad.data(), 16);
    std::memcpy(&bad[16], &crc, sizeof crc);
    StatusOr<SnapshotReader> stale = openEdited(bad);
    EXPECT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), StatusCode::kCorruptSnapshot);

    // Header CRC damage alone.
    bad = good;
    bad[17] ^= 0x01;
    EXPECT_EQ(openEdited(bad).status().code(), StatusCode::kCorruptSnapshot);

    // A flipped payload bit fails that record's CRC: the reader reports
    // a truncated (prefix-only) stream instead of crashing or lying.
    bad = good;
    bad[kSnapshotHeaderBytes + 10] ^= 0x40;
    StatusOr<SnapshotReader> flipped = openEdited(bad);
    ASSERT_TRUE(flipped.ok());
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    EXPECT_FALSE(flipped->next(type, payload));
    EXPECT_TRUE(flipped->truncated());
}

TEST(SnapshotContainer, StreamedFileMatchesBuffered)
{
    // Records from empty to 1.5x the stream threshold: the streaming
    // writer flushes after some records and not others.
    std::mt19937_64 rng(20261019);
    std::vector<std::string> records;
    for (const size_t len :
         {size_t{0}, size_t{1}, size_t{100}, kSnapshotStreamBytes - 13,
          kSnapshotStreamBytes, 3 * kSnapshotStreamBytes / 2, size_t{4096},
          size_t{7}}) {
        std::string r(len, '\0');
        for (char &c : r)
            c = static_cast<char>(rng());
        records.push_back(std::move(r));
    }
    TempDir dir;
    const std::string buffered = dir.file("buffered.snap");
    const std::string streamed = dir.file("streamed.snap");
    const FaultInjector none; // buffers the file, injects nothing
    SnapshotWriter a(buffered, &none);
    SnapshotWriter b(streamed);
    for (size_t i = 0; i < records.size(); ++i)
        for (SnapshotWriter *w : {&a, &b}) {
            ByteWriter(w->beginRecord(static_cast<uint8_t>(i)))
                .bytes(records[i].data(), records[i].size());
            w->endRecord();
        }
    EXPECT_EQ(a.bytesWritten(), b.bytesWritten());
    ASSERT_TRUE(a.finish().ok());
    ASSERT_TRUE(b.finish().ok());
    const std::string bytes = slurp(buffered);
    EXPECT_EQ(bytes.size(), a.bytesWritten());
    EXPECT_EQ(slurp(streamed), bytes);

    // The file reader hands out the same records; a torn file ends
    // iteration after its intact prefix.
    const size_t last = records.size() - 1;
    for (const auto &[keep, intact] :
         {std::pair{bytes.size(), records.size()},
          std::pair{bytes.size() - 1, last},
          std::pair{bytes.size() - records[last].size() - 5, last},
          std::pair{kSnapshotHeaderBytes + 5, size_t{0}}}) {
        spit(streamed, bytes.substr(0, keep));
        StatusOr<SnapshotReader> r = SnapshotReader::openFile(streamed);
        ASSERT_TRUE(r.ok()) << r.status().str();
        EXPECT_EQ(r->fileBytes(), keep);
        uint8_t type = 0;
        ByteReader payload(nullptr, 0);
        size_t i = 0;
        while (r->next(type, payload)) {
            ASSERT_LT(i, records.size());
            EXPECT_EQ(type, i);
            const size_t n = payload.remaining();
            EXPECT_EQ(std::string(payload.bytes(n), n), records[i]);
            ++i;
        }
        EXPECT_EQ(i, intact) << "kept " << keep << " bytes";
        EXPECT_EQ(r->truncated(), keep != bytes.size());
    }
    EXPECT_EQ(SnapshotReader::openFile(dir.file("none.snap")).status().code(),
              StatusCode::kDataLoss);
    spit(streamed, bytes.substr(0, kSnapshotHeaderBytes - 1));
    EXPECT_EQ(SnapshotReader::openFile(streamed).status().code(),
              StatusCode::kCorruptSnapshot);

    // A streaming writer destroyed unfinished, after it flushed, leaves
    // the target as it was and no temp file; one whose temp file cannot
    // be created fails at finish().
    spit(streamed, "previous");
    {
        SnapshotWriter w(streamed);
        ByteWriter(w.beginRecord(1))
            .bytes(records[5].data(), records[5].size());
        w.endRecord();
        EXPECT_GT(w.bytesWritten(), kSnapshotStreamBytes);
    }
    EXPECT_EQ(slurp(streamed), "previous");
    size_t entries = 0;
    if (DIR *d = ::opendir(dir.path.c_str())) {
        while (const dirent *e = ::readdir(d))
            entries += e->d_name[0] != '.';
        ::closedir(d);
    }
    EXPECT_EQ(entries, 2u); // buffered.snap, streamed.snap
    SnapshotWriter orphan(dir.file("missing/dir.snap"));
    EXPECT_EQ(orphan.finish().code(), StatusCode::kDataLoss);
}

TEST(SnapshotContainer, Crc32MatchesBytewiseReference)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(testref::referenceCrc32("123456789", 9), 0xCBF43926u);

    constexpr size_t kMaxLen = 4097;
    constexpr size_t kMaxOffset = 15;
    std::mt19937_64 rng(20240515);
    std::vector<uint8_t> buf(kMaxLen + kMaxOffset);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng());

    // Every length across the 64-byte folds, the 16-byte blocks, the
    // 8-byte steps and the bytewise tail, from every start alignment;
    // the slice-by-8 kernel too, which hosts with PCLMULQDQ only run on
    // short ranges and tails inside crc32().
    for (size_t off = 0; off <= kMaxOffset; ++off)
        for (size_t len = 0; len <= kMaxLen; ++len) {
            const uint32_t want =
                testref::referenceCrc32(buf.data() + off, len);
            ASSERT_EQ(crc32(buf.data() + off, len), want)
                << "offset " << off << " length " << len;
            ASSERT_EQ(crc32SliceBy8(buf.data() + off, len), want)
                << "slice-by-8, offset " << off << " length " << len;
        }

    // Chaining: crc32(b, crc32(a)) is the CRC of a followed by b, for any
    // split and any seed.
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t off = rng() % (kMaxOffset + 1);
        const size_t len = rng() % (kMaxLen + 1);
        const size_t cut = rng() % (len + 1);
        const auto seed = static_cast<uint32_t>(rng());
        const uint8_t *p = buf.data() + off;
        const uint32_t want = testref::referenceCrc32(p, len, seed);
        ASSERT_EQ(crc32(p, len, seed), want) << "seed " << seed;
        ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut, seed)), want)
            << "split " << cut << " of " << len;
    }

    // Chained splits with the cut at every byte of the first three fold
    // blocks and of the last three, so each half starts or ends inside,
    // on and across a 64-byte block.
    for (const size_t len : {64, 65, 79, 127, 128, 143, 191, 192, 257, 1000,
                             4097}) {
        const auto seed = static_cast<uint32_t>(rng());
        const uint8_t *p = buf.data() + len % (kMaxOffset + 1);
        const uint32_t want = testref::referenceCrc32(p, len, seed);
        for (size_t cut = 0; cut <= len; ++cut) {
            if (cut > 192 && cut + 192 < len)
                continue;
            ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut, seed)), want)
                << "split " << cut << " of " << len;
            ASSERT_EQ(crc32SliceBy8(p + cut, len - cut,
                                    crc32SliceBy8(p, cut, seed)),
                      want)
                << "slice-by-8 split " << cut << " of " << len;
        }
    }

    // Multi-MiB ranges (many iterations of the four-lane fold) from all
    // 16 start offsets, whole and chained at a random cut.
    std::vector<uint8_t> big((3u << 20) + 13 + kMaxOffset);
    for (uint8_t &b : big)
        b = static_cast<uint8_t>(rng());
    for (size_t off = 0; off <= kMaxOffset; ++off) {
        const size_t len = big.size() - kMaxOffset - off % 7;
        const uint8_t *p = big.data() + off;
        const auto seed = static_cast<uint32_t>(rng());
        const uint32_t want = testref::referenceCrc32(p, len, seed);
        ASSERT_EQ(crc32(p, len, seed), want) << "offset " << off;
        ASSERT_EQ(crc32SliceBy8(p, len, seed), want) << "offset " << off;
        const size_t cut = rng() % (len + 1);
        ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut, seed)), want)
            << "offset " << off << " split " << cut;
    }
}

// ---------------------------------------------------------------------
// Cache snapshot round-trip + warm-restart bit-identity.
// ---------------------------------------------------------------------

TEST(CacheSnapshot, FixtureReSavesByteIdentical)
{
    // tests/data/cache_d3.snap was written by saveCacheSnapshot at
    // format version 1 / ABI version 4, from the cache of this scenario:
    // SurfDeformer, d=3, deltaD=2, horizon 4 rounds, window and max epoch
    // 1 round, durationSec 20e-6, regionDiameter 2, eventRateScale
    // 150000, 1 timeline, p=2e-3, 64 shots, seed 1, threads 1 — four
    // segments with memoized rows and one timeline. Loading it restores
    // every record, and saving the restored cache writes the same bytes:
    // the writer's encoding of every record type is pinned. A deliberate
    // format or ABI bump regenerates the file the same way.
    const std::string fixture =
        std::string(SURF_TEST_DATA_DIR) + "/cache_d3.snap";
    const std::string original = slurp(fixture);
    ASSERT_FALSE(original.empty());

    StatusOr<SnapshotReader> reader = SnapshotReader::openFile(fixture);
    ASSERT_TRUE(reader.ok()) << reader.status().str();
    uint8_t type = 0;
    ByteReader payload(nullptr, 0);
    size_t records = 0;
    while (reader->next(type, payload))
        ++records;
    EXPECT_FALSE(reader->truncated());

    DeformedCodeCache cache;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(cache, fixture);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->rejectedRecords, 0u);
    EXPECT_FALSE(loaded->truncated);
    EXPECT_EQ(loaded->segments + loaded->timelines, records);
    EXPECT_GT(loaded->timelines, 0u);
    EXPECT_GT(loaded->rows, 0u);

    TempDir dir;
    const std::string path = dir.file("resaved.snap");
    StatusOr<SnapshotSaveStats> saved = saveCacheSnapshot(cache, path);
    ASSERT_TRUE(saved.ok()) << saved.status().str();
    EXPECT_EQ(saved->fileBytes, original.size());
    EXPECT_EQ(saved->rows, loaded->rows);
    const std::string resaved = slurp(path);
    ASSERT_EQ(resaved.size(), original.size());
    EXPECT_TRUE(resaved == original) << "re-saved snapshot differs";
}

TEST(CacheSnapshot, PreviousAbiRejectedWholeAndColdStarts)
{
    // A snapshot stamped with ABI 3 (whose segment records still carried
    // their circuit) is rejected whole by the version check, with a
    // valid header CRC, and the run that finds it cold-starts with
    // identical results.
    static_assert(kSnapshotAbiVersion == 4);
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    StatusOr<ScenarioResult> cold = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(cold.ok()) << cold.status().str();

    const std::string snap = dir.file("cache.snap");
    std::string bytes = slurp(snap);
    ASSERT_GT(bytes.size(), kSnapshotHeaderBytes);
    constexpr size_t kAbiOffset = 8 + 4; // magic | format | abi
    const uint32_t abi = 3;
    std::memcpy(&bytes[kAbiOffset], &abi, sizeof abi);
    const uint32_t crc = crc32(bytes.data(), kSnapshotHeaderBytes - 4);
    std::memcpy(&bytes[kSnapshotHeaderBytes - 4], &crc, sizeof crc);
    spit(snap, bytes);

    DeformedCodeCache probe;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(probe, snap);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptSnapshot);
    EXPECT_NE(loaded.status().message().find("ABI version 3"),
              std::string::npos)
        << loaded.status().str();
    EXPECT_EQ(probe.size(), 0u);

    StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(rerun.ok()) << rerun.status().str();
    EXPECT_EQ(rerun->persistRestoredSegments, 0u);
    EXPECT_EQ(rerun->persistRecoveries, 1u);
    expectSameResults(*cold, *rerun);
}

TEST(CacheSnapshot, WarmRestartBitIdenticalToCold)
{
    TempDir dir;
    ScenarioConfig cold = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(cold);
    ASSERT_TRUE(truth.ok()) << truth.status().str();

    // Pass 1: cold with persistence — writes cache.snap on completion.
    ScenarioConfig persisted = cold;
    persisted.persistDir = dir.path;
    StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(persisted);
    ASSERT_TRUE(pass1.ok()) << pass1.status().str();
    expectSameResults(*truth, *pass1);
    EXPECT_EQ(pass1->persistRestoredSegments, 0u);
    EXPECT_GT(pass1->persistSnapshotBytes, 0u);
    EXPECT_TRUE(snapshotFileExists(dir.file("cache.snap")));

    // Pass 2: warm restart — restores segments and stays bit-identical.
    StatusOr<ScenarioResult> pass2 = runScenarioExperimentChecked(persisted);
    ASSERT_TRUE(pass2.ok()) << pass2.status().str();
    expectSameResults(*truth, *pass2);
    EXPECT_GT(pass2->persistRestoredSegments, 0u);
    EXPECT_GT(pass2->persistRestoredRows, 0u);
    EXPECT_EQ(pass2->persistRecoveries, 0u);
    EXPECT_EQ(pass2->ledger.snapRestoredEntries,
              pass2->persistRestoredSegments +
                  pass2->persistRestoredTimelines);
}

TEST(CacheSnapshot, DirectSaveLoadRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");

    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();

    StatusOr<SnapshotSaveStats> saved = saveCacheSnapshot(cache, path);
    ASSERT_TRUE(saved.ok()) << saved.status().str();
    EXPECT_GT(saved->segments, 0u);
    EXPECT_GT(saved->rows, 0u);
    EXPECT_GT(saved->fileBytes, 0u);

    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->segments, saved->segments);
    EXPECT_EQ(loaded->timelines, saved->timelines);
    EXPECT_EQ(loaded->rows, saved->rows);
    EXPECT_EQ(loaded->rejectedRecords, 0u);
    EXPECT_FALSE(loaded->truncated);

    // A restore is neither a lookup nor a build, and every entry keeps
    // the cost its original build measured, bit for bit.
    EXPECT_EQ(fresh.hits(), 0u);
    EXPECT_EQ(fresh.misses(), 0u);
    EXPECT_EQ(fresh.buildSeconds(), 0.0);
    const auto costBits = [](const DeformedCodeCache &c) {
        std::map<std::string, uint64_t> bits;
        const auto add = [&](const std::string &key, double cost) {
            uint64_t b;
            std::memcpy(&b, &cost, sizeof b);
            bits[key] = b;
        };
        c.forEachSegment([&](const std::string &key, const CachedSegment &,
                             double cost) { add(key, cost); });
        c.forEachTimeline([&](const std::string &key, const CachedTimeline &,
                              double cost) { add(key, cost); });
        return bits;
    };
    EXPECT_EQ(saved->skippedTimelines, 0u);
    EXPECT_EQ(costBits(fresh), costBits(cache));

    // The warm cache reproduces the run bit-identically with zero misses
    // on the segments it restored.
    ScenarioConfig warm = sampledConfig();
    warm.cache = &fresh;
    StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
    ASSERT_TRUE(rerun.ok()) << rerun.status().str();
    expectSameResults(*run, *rerun);
    EXPECT_GT(rerun->cacheHits, 0u);
}

TEST(CacheSnapshot, RestoreIsInsertIfAbsent)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    ASSERT_TRUE(runScenarioExperimentChecked(sc).ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());

    // Restoring on top of the same resident cache inserts nothing.
    StatusOr<SnapshotRestoreStats> again = loadCacheSnapshot(cache, path);
    ASSERT_TRUE(again.ok()) << again.status().str();
    EXPECT_EQ(again->segments, 0u);
    EXPECT_EQ(again->timelines, 0u);
}

// ---------------------------------------------------------------------
// Loader fuzz matrix.
// ---------------------------------------------------------------------

/** Byte offsets of every record boundary in a snapshot container. */
std::vector<size_t>
recordBoundaries(const std::string &bytes)
{
    std::vector<size_t> offs;
    size_t pos = kSnapshotHeaderBytes;
    offs.push_back(pos);
    while (pos + 1 + 8 + 4 <= bytes.size()) {
        uint64_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, sizeof len);
        pos += 1 + 8 + len + 4;
        if (pos > bytes.size())
            break;
        offs.push_back(pos);
    }
    return offs;
}

TEST(LoaderFuzz, TruncationAtEveryRecordBoundary)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());
    const std::string good = slurp(path);

    std::vector<size_t> cuts = recordBoundaries(good);
    ASSERT_GE(cuts.size(), 2u);
    // Mid-record cuts too: one byte past each boundary and halfway into
    // each record.
    const size_t n_bounds = cuts.size();
    for (size_t i = 0; i + 1 < n_bounds; ++i) {
        cuts.push_back(cuts[i] + 1);
        cuts.push_back(cuts[i] + (cuts[i + 1] - cuts[i]) / 2);
    }
    cuts.push_back(0);
    cuts.push_back(kSnapshotHeaderBytes / 2);

    const std::string cut_path = dir.file("cut.snap");
    for (size_t cut : cuts) {
        if (cut > good.size())
            continue;
        spit(cut_path, good.substr(0, cut));
        DeformedCodeCache fresh;
        StatusOr<SnapshotRestoreStats> loaded =
            loadCacheSnapshot(fresh, cut_path);
        // Never crashes. Header cuts are whole-file rejections. A cut
        // exactly on a record boundary is indistinguishable from a
        // shorter valid snapshot (clean EOF); a mid-record cut flags
        // truncation and keeps the valid prefix.
        if (cut < kSnapshotHeaderBytes) {
            EXPECT_FALSE(loaded.ok());
        }
        // Whatever was restored still yields bit-identical physics.
        ScenarioConfig warm = sampledConfig();
        warm.cache = &fresh;
        StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
        ASSERT_TRUE(rerun.ok()) << "cut at " << cut;
        expectSameResults(*truth, *rerun);
    }
}

TEST(LoaderFuzz, SingleBitFlips)
{
    TempDir dir;
    const std::string path = dir.file("cache.snap");
    ScenarioConfig sc = sampledConfig();
    DeformedCodeCache cache;
    sc.cache = &cache;
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());
    const std::string good = slurp(path);

    // Deterministic sample of byte positions across the whole file
    // (every byte would take minutes on a large snapshot).
    const std::string flip_path = dir.file("flip.snap");
    const size_t stride = good.size() < 512 ? 1 : good.size() / 257;
    for (size_t pos = 0; pos < good.size(); pos += stride) {
        std::string bad = good;
        bad[pos] ^= static_cast<char>(1u << (pos % 8));
        spit(flip_path, bad);
        DeformedCodeCache fresh;
        StatusOr<SnapshotRestoreStats> loaded =
            loadCacheSnapshot(fresh, flip_path);
        // Either the whole file is rejected (header damage) or the
        // stream loads with the damaged record dropped — never a crash,
        // never a wrong answer.
        ScenarioConfig warm = sampledConfig();
        warm.cache = &fresh;
        StatusOr<ScenarioResult> rerun = runScenarioExperimentChecked(warm);
        ASSERT_TRUE(rerun.ok()) << "flip at " << pos;
        expectSameResults(*truth, *rerun);
        (void)loaded;
    }
}

/** A small valid DEM: two X-check detectors, a Z-check detector, and
 *  the edges between them and the boundary. */
DetectorErrorModel
tinyDem()
{
    DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.detectorTag = {0, 0, 1};
    dem.edges[0] = {{0, 1, 0.01, false}, {0, -1, 0.02, true},
                    {1, -1, 0.03, false}};
    dem.edges[1] = {{2, -1, 0.04, true}};
    return dem;
}

/** The v4 segment record layout, written field by field: key, tag,
 *  backend, DEM, CSR digest, rows (none here), cost. */
void
writeSegmentRecordByHand(SnapshotWriter &snap, const std::string &key,
                         uint8_t tag, MatchingBackend backend,
                         const DetectorErrorModel &dem, uint64_t digest)
{
    ByteWriter w(snap.beginRecord(1)); // kRecSegment
    w.str(key);
    w.u8(tag);
    w.u8(static_cast<uint8_t>(backend));
    w.u64(dem.numDetectors);
    w.bytes(dem.detectorTag.data(), dem.detectorTag.size());
    for (const std::vector<DemEdge> &edges : dem.edges) {
        w.u64(edges.size());
        for (const DemEdge &e : edges) {
            w.i64(e.a);
            w.i64(e.b);
            w.f64(e.p);
            w.u8(e.flipsObs ? 1 : 0);
        }
    }
    w.f64(dem.undetectableObsProb);
    w.u64(dem.decomposedComponents);
    w.u64(digest);
    w.u64(0);   // rows
    w.f64(0.5); // build cost
    snap.endRecord();
}

TEST(LoaderFuzz, SemanticMismatchRejectedByDigest)
{
    // A CRC-valid, well-formed segment record whose CSR digest does not
    // match the graph its DEM rebuilds (a payload from a different
    // code): the loader must reject it at the digest check, not trust
    // it. An invalid basis tag is rejected before the DEM is read. The
    // same record with the right tag and digest restores.
    const DetectorErrorModel dem = tinyDem();
    const uint8_t tag = 0;
    const MatchingBackend backend = MatchingBackend::Sparse;
    const uint64_t digest =
        MwpmDecoder(dem, tag, nullptr, backend).graph().csrDigest();

    struct Case
    {
        const char *what;
        uint8_t tag;
        uint64_t digest;
        bool restores;
    };
    TempDir dir;
    for (const Case &c : {Case{"wrong digest", tag, digest ^ 1, false},
                          Case{"invalid tag", 9, digest, false},
                          Case{"control", tag, digest, true}}) {
        SCOPED_TRACE(c.what);
        const std::string path = dir.file("record.snap");
        SnapshotWriter w(path);
        writeSegmentRecordByHand(w, "segment-key", c.tag, backend, dem,
                                 c.digest);
        ASSERT_TRUE(w.finish().ok());

        DeformedCodeCache fresh;
        StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().str();
        EXPECT_FALSE(loaded->truncated);
        EXPECT_EQ(loaded->segments, c.restores ? 1u : 0u);
        EXPECT_EQ(loaded->rejectedRecords, c.restores ? 0u : 1u);
        EXPECT_EQ(fresh.size(), c.restores ? 1u : 0u);
        if (c.restores) {
            const auto seg = fresh.peekSegment("segment-key");
            ASSERT_NE(seg, nullptr);
            EXPECT_EQ(seg->dem.numDetectors, dem.numDetectors);
            EXPECT_EQ(seg->mwpm->graph().csrDigest(), digest);
        }
    }
}

TEST(LoaderFuzz, UnknownRecordTypeSkipped)
{
    TempDir dir;
    const std::string path = dir.file("future.snap");
    SnapshotWriter w(path);
    {
        std::string &payload = w.beginRecord(200); // from the future
        ByteWriter bw(payload);
        bw.u64(0);
        w.endRecord();
    }
    ASSERT_TRUE(w.finish().ok());
    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded->segments, 0u);
}

/** Bytes the process has mapped now (0 when /proc is unavailable). */
size_t
mappedBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t pages = 0;
    statm >> pages;
    return pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

/** Death-test body: cap the address space at 1 GiB above what is mapped
 *  already (the file buffer and allocator arenas included), so any
 *  count-sized reservation fails, then load `path`. Exits 0 iff the load
 *  succeeds with exactly one record rejected and nothing restored. */
[[noreturn]] void
loadOneRejectedUnderCappedMemory(const std::string &path)
{
    const rlim_t cap = mappedBytes() + (rlim_t{1} << 30);
    const struct rlimit lim = {cap, cap};
    if (::setrlimit(RLIMIT_AS, &lim) != 0)
        ::_exit(2);
    DeformedCodeCache fresh;
    StatusOr<SnapshotRestoreStats> loaded = loadCacheSnapshot(fresh, path);
    ::_exit(loaded.ok() && loaded->rejectedRecords == 1 &&
                    loaded->segments == 0 && loaded->timelines == 0
                ? 0
                : 1);
}

TEST(LoaderFuzz, LyingElementCountsRejectedWithoutHugeReservations)
{
    // CRC-valid records whose element count fits the payload's *bytes*
    // but would take many times that in *elements*. The loader must
    // bound each count by the element's encoded size before reserving:
    // under a capped address space the load returns OK with the record
    // rejected, instead of throwing std::bad_alloc.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory needs the address space";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "sanitizer shadow memory needs the address space";
#endif
#endif
    constexpr uint64_t kZeros = uint64_t{64} << 20;
    const std::string zeros(kZeros, '\0');
    auto segmentHead = [&](ByteWriter &w) {
        w.str("lying-segment");
        w.u8(0); // tag
        w.u8(0); // backend
    };
    auto timelineHead = [&](ByteWriter &w) {
        w.str("lying-timeline");
        w.u8(1); // alive
    };

    struct Case
    {
        const char *what;
        uint8_t type; // kRecSegment = 1, kRecTimeline = 2
        std::function<void(ByteWriter &)> head;
    };
    const std::vector<Case> cases = {
        {"instructions", 2,
         [&](ByteWriter &w) {
             timelineHead(w);
             w.u64(kZeros); // circuit instructions (>= 21 B each)
         }},
        {"epochs", 2,
         [&](ByteWriter &w) {
             timelineHead(w);
             w.u64(0);      // circuit instructions
             w.u64(kZeros); // epochs (>= 64 B each)
         }},
        {"dem edges", 1,
         [&](ByteWriter &w) {
             segmentHead(w);
             w.u64(0);      // DEM detectors
             w.u64(kZeros); // X edges (25 B each)
         }},
        {"rows", 1,
         [&](ByteWriter &w) {
             segmentHead(w);
             w.u64(0);      // DEM detectors
             w.u64(0);      // X edges
             w.u64(0);      // Z edges
             w.f64(0.0);    // undetectable observable probability
             w.u64(0);      // decomposed components
             w.u64(0);      // CSR digest
             w.u64(kZeros); // rows (>= 16 + 5 B each)
         }},
    };

    TempDir dir;
    for (const Case &c : cases) {
        const std::string path = dir.file("lying.snap");
        {
            SnapshotWriter w(path);
            ByteWriter bw(w.beginRecord(c.type));
            c.head(bw);
            bw.bytes(zeros.data(), zeros.size());
            w.endRecord();
            ASSERT_TRUE(w.finish().ok());
        }
        EXPECT_EXIT(loadOneRejectedUnderCappedMemory(path),
                    ::testing::ExitedWithCode(0), "")
            << "lying " << c.what << " count";
    }
}

TEST(LoaderFuzz, StaleVersionViaFaultInjection)
{
    // snap.stale stamps an alien format version WITH a recomputed header
    // CRC, so the loader's version check (not the checksum) must fire.
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    sc.faults = mustPlan("seed=5;snap.stale=1");
    StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(pass1.ok()) << pass1.status().str();

    // The file on disk is stale now; the next run must cold-start and
    // count a recovery, with identical physics.
    ScenarioConfig clean = sampledConfig();
    clean.persistDir = dir.path;
    StatusOr<ScenarioResult> pass2 = runScenarioExperimentChecked(clean);
    ASSERT_TRUE(pass2.ok()) << pass2.status().str();
    EXPECT_EQ(pass2->persistRestoredSegments, 0u);
    EXPECT_GE(pass2->persistRecoveries, 1u);
    EXPECT_GE(pass2->ledger.snapRecoveries, 1u);
    expectSameResults(*pass1, *pass2);
}

TEST(LoaderFuzz, TornAndBitflipFaultSites)
{
    // snap.torn + snap.bitflip.p corrupt the written snapshot; every
    // subsequent run survives with bit-identical results.
    ScenarioConfig base = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(base);
    ASSERT_TRUE(truth.ok());

    for (const char *plan :
         {"seed=7;snap.torn=0.6", "seed=7;snap.bitflip.p=2e-4",
          "seed=7;snap.torn=0.97;snap.bitflip.p=1e-3"}) {
        TempDir dir;
        ScenarioConfig sc = base;
        sc.persistDir = dir.path;
        sc.faults = mustPlan(plan);
        StatusOr<ScenarioResult> pass1 = runScenarioExperimentChecked(sc);
        ASSERT_TRUE(pass1.ok()) << plan << ": " << pass1.status().str();
        expectSameResults(*truth, *pass1);

        ScenarioConfig clean = base;
        clean.persistDir = dir.path;
        StatusOr<ScenarioResult> pass2 =
            runScenarioExperimentChecked(clean);
        ASSERT_TRUE(pass2.ok()) << plan << ": " << pass2.status().str();
        expectSameResults(*truth, *pass2);
    }
}

// ---------------------------------------------------------------------
// Kill/resume checkpointing.
// ---------------------------------------------------------------------

TEST(Checkpoint, KillAndResumeBitIdenticalAcrossThreadCounts)
{
    ScenarioConfig base = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(base);
    ASSERT_TRUE(truth.ok());

    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        TempDir dir;
        ScenarioConfig killed = base;
        killed.threads = threads;
        killed.persistDir = dir.path;
        killed.faults = mustPlan("seed=3;snap.kill=2");
        StatusOr<ScenarioResult> crash = runScenarioExperimentChecked(killed);
        ASSERT_FALSE(crash.ok());
        EXPECT_EQ(crash.status().code(), StatusCode::kAborted)
            << crash.status().str();

        // Resume: same physics config. snap.* clauses (and with them the
        // whole now-inert fault plan) are signature-exempt, so dropping
        // the kill plan entirely still matches the checkpoint.
        ScenarioConfig resumed = base;
        resumed.threads = threads;
        resumed.persistDir = dir.path;
        StatusOr<ScenarioResult> done = runScenarioExperimentChecked(resumed);
        ASSERT_TRUE(done.ok()) << done.status().str();
        EXPECT_EQ(done->resumedTimelines, 2u) << "threads " << threads;
        expectSameResults(*truth, *done);

        // Success unlinks the checkpoint; a third run starts fresh.
        StatusOr<ScenarioResult> third = runScenarioExperimentChecked(resumed);
        ASSERT_TRUE(third.ok());
        EXPECT_EQ(third->resumedTimelines, 0u);
        expectSameResults(*truth, *third);
    }
}

TEST(Checkpoint, StaleSignatureIgnored)
{
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;

    // Plant a checkpoint at this config's path but stamped with a
    // different signature (a hash-collision / hand-copied file): the
    // engine must ignore it, not resume from foreign results.
    const uint64_t sig = scenarioConfigSignature(sc);
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.ckpt",
                  static_cast<unsigned long long>(sig));
    std::vector<TimelineStats> foreign(2);
    foreign[0].shots = 12345;
    ASSERT_TRUE(saveRunCheckpoint(dir.file(name), sig ^ 1, foreign).ok());

    StatusOr<ScenarioResult> run = runScenarioExperimentChecked(sc);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_EQ(run->resumedTimelines, 0u);

    ScenarioConfig plain = sampledConfig();
    StatusOr<ScenarioResult> truth = runScenarioExperimentChecked(plain);
    ASSERT_TRUE(truth.ok());
    expectSameResults(*truth, *run);
}

TEST(Checkpoint, TornCheckpointResumesFromPrefix)
{
    TempDir dir;
    ScenarioConfig sc = sampledConfig();
    sc.persistDir = dir.path;
    sc.faults = mustPlan("seed=3;snap.kill=3");
    ASSERT_FALSE(runScenarioExperimentChecked(sc).ok());

    const uint64_t sig = scenarioConfigSignature(sc);
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.ckpt",
                  static_cast<unsigned long long>(sig));
    const std::string ckpt = dir.file(name);
    const std::string good = slurp(ckpt);

    // Tear the tail off: the valid prefix is an earlier checkpoint and
    // must resume (fewer timelines) with identical final results.
    spit(ckpt, good.substr(0, good.size() - good.size() / 3));
    ScenarioConfig resumed = sampledConfig();
    resumed.persistDir = dir.path;
    StatusOr<ScenarioResult> done = runScenarioExperimentChecked(resumed);
    ASSERT_TRUE(done.ok()) << done.status().str();
    EXPECT_GT(done->resumedTimelines, 0u);
    EXPECT_LT(done->resumedTimelines, 3u);

    StatusOr<ScenarioResult> truth =
        runScenarioExperimentChecked(sampledConfig());
    ASSERT_TRUE(truth.ok());
    expectSameResults(*truth, *done);
}

// ---------------------------------------------------------------------
// Row-restore concurrency (run under TSan in CI).
// ---------------------------------------------------------------------

TEST(PersistRaces, RestoreRowRacesDecodePublication)
{
    // Restored rows are published with the same CAS row() uses, so a
    // snapshot restore may overlap live decoding. Warm a reference
    // graph, copy its rows, then restore them into a fresh graph while
    // worker threads decode on it and publish rows of their own —
    // predictions must match the serial reference bit for bit.
    MemorySpec spec;
    spec.rounds = 5;
    NoiseParams noise;
    noise.p = 4e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(5), spec,
                                                  noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);

    MwpmDecoder reference(dem, 1, nullptr, MatchingBackend::Sparse);
    FrameSimulator sim(built.circuit, 256, 0xfeed);
    const SparseSyndromes syndromes = sim.sparseFiredDetectors();
    std::vector<uint8_t> expected(sim.shots());
    MwpmScratch ref_scratch;
    for (size_t s = 0; s < sim.shots(); ++s)
        expected[s] = reference.decode(syndromes.data(s),
                                       syndromes.count(s), ref_scratch);

    // Harvest the reference's resident rows (copies).
    std::vector<std::pair<int, DecodingGraph::Row>> rows;
    reference.graph().forEachResidentRow(
        [&](int src, const DecodingGraph::Row &row) {
            rows.emplace_back(src, row);
        });
    ASSERT_FALSE(rows.empty());

    MwpmDecoder target(dem, 1, nullptr, MatchingBackend::Sparse);

    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < 3; ++t) {
        workers.emplace_back([&] {
            MwpmScratch scratch;
            size_t bad = 0;
            for (size_t s = 0; s < sim.shots(); ++s)
                bad += target.decode(syndromes.data(s),
                                     syndromes.count(s),
                                     scratch) != (expected[s] != 0);
            mismatches.fetch_add(bad, std::memory_order_relaxed);
        });
    }
    // Restorer thread: replays every harvested row into the live graph
    // (occupied slots make many of these no-ops — exactly the races the
    // loader meets).
    workers.emplace_back([&] {
        for (int pass = 0; pass < 8; ++pass)
            for (const auto &[src, row] : rows) {
                DecodingGraph::Row copy = row;
                (void)target.graph().restoreRow(src, std::move(copy));
            }
    });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(mismatches.load(), 0u)
        << "row restore under contention changed a prediction";
    // Decoding and restoring touch the same sources the reference built,
    // and each source is published once, whoever wins.
    EXPECT_EQ(target.graph().rowsResident(),
              reference.graph().rowsResident());
}

TEST(PersistRaces, RestoreRowRejectsMalformedRows)
{
    MemorySpec spec;
    spec.rounds = 3;
    NoiseParams noise;
    noise.p = 2e-3;
    const BuiltCircuit built = buildMemoryCircuit(squarePatch(3), spec,
                                                  noise);
    const auto dem = buildDem(built.circuit, PauliType::Z);
    MwpmDecoder dec(dem, 1, nullptr, MatchingBackend::Sparse);
    const DecodingGraph &g = dec.graph();
    const size_t n = g.numNodes() + 1;

    DecodingGraph::Row short_row;
    short_row.dist.resize(n - 1);
    short_row.par.resize(n - 1);
    EXPECT_FALSE(g.restoreRow(0, std::move(short_row)));

    DecodingGraph::Row oob;
    oob.dist.resize(n);
    oob.par.resize(n);
    EXPECT_FALSE(g.restoreRow(-1, DecodingGraph::Row(oob)));
    EXPECT_FALSE(g.restoreRow(static_cast<int>(n), std::move(oob)));
}

} // namespace
} // namespace surf
