/**
 * @file
 * Tests of the content-addressed stage cache (core/stage_cache.hh):
 * payload round-trip bit-exactness through the binary codecs, decoder
 * robustness against truncated or inflated payloads, hit/miss
 * accounting, fingerprint invalidation via
 * stageFingerprint (core/stage.hh), corrupted-entry fallback, and
 * concurrent-writer safety under the deterministic-payload contract.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "core/stage.hh"
#include "core/stage_cache.hh"

namespace bigfish::core {
namespace {

namespace fs = std::filesystem;

/** A fresh empty cache directory unique to @p leaf. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + "bf_stage_cache_" + leaf;
    fs::remove_all(dir);
    return dir;
}

/** Opens a cache at a fresh directory, failing the test on error. */
StageCache
openFresh(const std::string &leaf)
{
    auto opened = StageCache::open(freshDir(leaf));
    EXPECT_TRUE(opened.isOk()) << opened.status().message();
    return std::move(opened).valueOrDie();
}

/** A deterministic dataset with awkward doubles (negative zero, inexact
 *  sums, tiny magnitudes) to stress the bit-exact round-trip. */
ml::Dataset
makeDataset(std::uint64_t seed, std::size_t rows, std::size_t cols)
{
    Rng rng(seed);
    ml::Dataset data;
    data.numClasses = 7;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> x(cols);
        for (std::size_t j = 0; j < cols; ++j)
            x[j] = rng.normal(0.0, 1.0) * 1e-3;
        if (!x.empty())
            x[0] = (i % 2 == 0) ? -0.0 : 0.1 + 0.2; // inexact sum
        data.add(std::move(x), static_cast<Label>(i % 7));
    }
    return data;
}

FeaturizedEntry
makeEntry(std::uint64_t seed, bool open_world)
{
    FeaturizedEntry entry;
    entry.closedWorld = makeDataset(seed, 11, 13);
    entry.hasOpenWorld = open_world;
    if (open_world)
        entry.openWorld = makeDataset(seed + 1, 5, 13);
    entry.droppedTraces = 3;
    entry.collectedTraces = 220;
    return entry;
}

void
expectDatasetsBitEqual(const ml::Dataset &got, const ml::Dataset &want)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.numClasses, want.numClasses);
    ASSERT_EQ(got.labels, want.labels);
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.features[i].size(), want.features[i].size());
        for (std::size_t j = 0; j < got.features[i].size(); ++j) {
            // Bit-level comparison: -0.0 == 0.0 under operator==, but
            // the replay contract is bitwise identity.
            std::uint64_t gbits = 0, wbits = 0;
            static_assert(sizeof(double) == sizeof(std::uint64_t));
            std::memcpy(&gbits, &got.features[i][j], sizeof(gbits));
            std::memcpy(&wbits, &want.features[i][j], sizeof(wbits));
            EXPECT_EQ(gbits, wbits) << "row " << i << " col " << j;
        }
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

TEST(StageCache, MissThenStoreThenHitRoundTripsBitExactly)
{
    StageCache cache = openFresh("roundtrip");

    const std::uint64_t key = 0x1234'5678'9abc'def0ULL;
    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);

    const FeaturizedEntry entry = makeEntry(42, /*open_world=*/true);
    ASSERT_TRUE(
        cache.put("featurized", key, encodeFeaturized(entry)).isOk());
    EXPECT_EQ(cache.stats().stores, 1u);

    const auto payload = cache.lookup("featurized", key);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(cache.stats().hits, 1u);
    const auto hit = decodeFeaturized(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->droppedTraces, entry.droppedTraces);
    EXPECT_EQ(hit->collectedTraces, entry.collectedTraces);
    EXPECT_TRUE(hit->hasOpenWorld);
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
    expectDatasetsBitEqual(hit->openWorld, entry.openWorld);
}

TEST(StageCache, ClosedWorldOnlyEntryOmitsOpenSection)
{
    StageCache cache = openFresh("closed_only");
    const std::uint64_t key = 7;
    const FeaturizedEntry entry = makeEntry(9, /*open_world=*/false);
    ASSERT_TRUE(
        cache.put("featurized", key, encodeFeaturized(entry)).isOk());
    const auto payload = cache.lookup("featurized", key);
    ASSERT_TRUE(payload.has_value());
    const auto hit = decodeFeaturized(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->hasOpenWorld);
    EXPECT_EQ(hit->openWorld.size(), 0u);
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
}

TEST(StageCache, FoldScoresRoundTripBitExactly)
{
    StageCache cache = openFresh("scores");
    ml::FoldScores fold;
    Rng rng(17);
    for (int row = 0; row < 9; ++row) {
        std::vector<double> scores(5);
        for (auto &s : scores)
            s = rng.normal(0.0, 1.0);
        scores[0] = row % 2 == 0 ? -0.0 : 0.1 + 0.2;
        fold.scores.push_back(std::move(scores));
        fold.truths.push_back(static_cast<Label>(row % 5));
        fold.predictions.push_back(static_cast<Label>((row + 1) % 5));
    }
    ASSERT_TRUE(cache.put("scores", 21, encodeFoldScores(fold)).isOk());
    const auto payload = cache.lookup("scores", 21);
    ASSERT_TRUE(payload.has_value());
    const auto hit = decodeFoldScores(*payload);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->truths, fold.truths);
    EXPECT_EQ(hit->predictions, fold.predictions);
    ASSERT_EQ(hit->scores.size(), fold.scores.size());
    for (std::size_t i = 0; i < fold.scores.size(); ++i) {
        ASSERT_EQ(hit->scores[i].size(), fold.scores[i].size());
        for (std::size_t j = 0; j < fold.scores[i].size(); ++j) {
            std::uint64_t gbits = 0, wbits = 0;
            std::memcpy(&gbits, &hit->scores[i][j], sizeof(gbits));
            std::memcpy(&wbits, &fold.scores[i][j], sizeof(wbits));
            EXPECT_EQ(gbits, wbits) << "row " << i << " col " << j;
        }
    }
}

TEST(StageCache, FingerprintChangesWithEveryInput)
{
    // Any change to a stage's name, canonical config text or upstream
    // fingerprints must address a different entry — that is the whole
    // invalidation story: stale entries are never *found*.
    const std::uint64_t up[] = {0x11ULL, 0x22ULL};
    const std::uint64_t base = stageFingerprint("featurize", "len=256\n", up);
    EXPECT_NE(base, stageFingerprint("featurize2", "len=256\n", up));
    EXPECT_NE(base, stageFingerprint("featurize", "len=255\n", up));
    const std::uint64_t other_up[] = {0x11ULL, 0x23ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", other_up));
    const std::uint64_t swapped[] = {0x22ULL, 0x11ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", swapped));
    const std::uint64_t fewer[] = {0x11ULL};
    EXPECT_NE(base, stageFingerprint("featurize", "len=256\n", fewer));
    // And the function itself is deterministic.
    EXPECT_EQ(base, stageFingerprint("featurize", "len=256\n", up));
}

TEST(StageCache, DifferentKeyOrKindMissesDespiteStoredEntry)
{
    StageCache cache = openFresh("invalidation");
    ASSERT_TRUE(
        cache.put("featurized", 1, encodeFeaturized(makeEntry(1, true)))
            .isOk());
    EXPECT_FALSE(cache.lookup("featurized", 2).has_value());
    EXPECT_FALSE(cache.lookup("model", 1).has_value());
    EXPECT_TRUE(cache.lookup("featurized", 1).has_value());
}

TEST(StageCache, CorruptedEntryIsRemovedAndMisses)
{
    StageCache cache = openFresh("corrupt");
    const std::uint64_t key = 3;
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(3, false)))
            .isOk());

    // Flip one payload byte; the CRC trailer must catch it.
    const std::string path = cache.entryPath("featurized", key);
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 100u);
    content[content.size() / 2] ^= 0x20;
    writeFile(path, content);

    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The poisoned file is gone, so the next run re-stores cleanly.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(3, false)))
            .isOk());
    EXPECT_TRUE(cache.lookup("featurized", key).has_value());
}

TEST(StageCache, TruncatedEntryIsAMiss)
{
    StageCache cache = openFresh("torn");
    const std::uint64_t key = 4;
    ASSERT_TRUE(
        cache.put("featurized", key,
                    encodeFeaturized(makeEntry(4, true)))
            .isOk());

    // Simulate a torn write: keep only the first half of the file.
    const std::string path = cache.entryPath("featurized", key);
    const std::string content = readFile(path);
    writeFile(path, content.substr(0, content.size() / 2));

    EXPECT_FALSE(cache.lookup("featurized", key).has_value());
    EXPECT_FALSE(fs::exists(path));
}

TEST(StageCache, UnframeRejectsKindOrKeyMismatch)
{
    // An entry framed under one (kind, key) must not validate under
    // another even if the bytes are intact (guards renamed files).
    const std::string text = StageCache::frame("model", 11, "payload\n");
    std::string payload;
    EXPECT_TRUE(StageCache::unframe(text, "model", 11, payload));
    EXPECT_EQ(payload, "payload\n");
    EXPECT_FALSE(StageCache::unframe(text, "model", 12, payload));
    EXPECT_FALSE(StageCache::unframe(text, "scores", 11, payload));
}

TEST(StageCache, DecodersRejectTruncatedAndInflatedPayloads)
{
    // The cache directory is input from outside the program: a decoder
    // must refuse every strict prefix of a valid payload, and a count
    // that claims more elements than bytes remain must fail before
    // anything is allocated for it.
    const std::string featurized = encodeFeaturized(makeEntry(5, true));
    ml::FoldScores fold;
    fold.scores = {{0.25, -1.5}, {3.0, 0.1 + 0.2}};
    fold.truths = {1, 0};
    fold.predictions = {0, 0};
    const std::string scores = encodeFoldScores(fold);
    CollectedCell cell;
    attack::Trace trace;
    trace.attacker = "loop-counting";
    trace.counts = {1.0, 2.5, -0.0};
    trace.wallTimes = {5, 6, 7};
    cell.emplace_back(trace);
    cell.emplace_back(Status(dataError("dropped")));
    const std::string cell_bytes = encodeCell(cell);

    ASSERT_TRUE(decodeFeaturized(featurized).has_value());
    ASSERT_TRUE(decodeFoldScores(scores).has_value());
    ASSERT_TRUE(decodeCell(cell_bytes).has_value());
    for (std::size_t cut = 0; cut < featurized.size(); ++cut)
        EXPECT_FALSE(
            decodeFeaturized(featurized.substr(0, cut)).has_value())
            << "featurized cut at " << cut;
    for (std::size_t cut = 0; cut < scores.size(); ++cut)
        EXPECT_FALSE(
            decodeFoldScores(scores.substr(0, cut)).has_value())
            << "scores cut at " << cut;
    for (std::size_t cut = 0; cut < cell_bytes.size(); ++cut)
        EXPECT_FALSE(
            decodeCell(cell_bytes.substr(0, cut)).has_value())
            << "cell cut at " << cut;
    // Trailing bytes are a malformation too.
    EXPECT_FALSE(decodeCell(cell_bytes + '\0').has_value());

    // The leading count is a little-endian u64: claim 2^62 slots.
    std::string inflated = cell_bytes;
    inflated[7] = 0x40;
    EXPECT_FALSE(decodeCell(inflated).has_value());
    std::string rows = scores;
    rows[7] = 0x40;
    EXPECT_FALSE(decodeFoldScores(rows).has_value());
}

TEST(StageCache, VersionOneEntryMissesInsteadOfMisdecoding)
{
    // A text entry in the previous format, CRC trailer and all: the
    // binary reader must report a miss and drop the file.
    StageCache cache = openFresh("v1");
    const std::string path = cache.entryPath("scores", 9);
    writeFile(path, "# bigfish-stage-cache v1 kind=scores "
                    "key=0000000000000009\nscores 0\ntruths 0\n"
                    "predictions 0\n@crc 00000000\n");
    EXPECT_FALSE(cache.lookup("scores", 9).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST(StageCache, ConcurrentWritersOfSameKeyLeaveAValidEntry)
{
    // The pipeline's contract: concurrent writers race to write
    // *identical* bytes (collection is deterministic), so whichever
    // atomic rename lands last must leave a parseable, correct entry.
    const std::string dir = freshDir("concurrent");
    const std::uint64_t key = 6;
    const FeaturizedEntry entry = makeEntry(6, true);
    const std::string payload = encodeFeaturized(entry);

    ThreadPool pool(8);
    std::vector<int> ok(16, 0);
    pool.parallelFor(16, [&](std::size_t i) {
        auto opened = StageCache::open(dir);
        if (!opened.isOk())
            return;
        StageCache writer = std::move(opened).valueOrDie();
        if (writer.put("featurized", key, payload).isOk())
            ok[i] = 1;
    });
    for (std::size_t i = 0; i < ok.size(); ++i)
        EXPECT_EQ(ok[i], 1) << "writer " << i;

    StageCache cache = StageCache::open(dir).valueOrDie();
    const auto framed = cache.lookup("featurized", key);
    ASSERT_TRUE(framed.has_value());
    const auto hit = decodeFeaturized(*framed);
    ASSERT_TRUE(hit.has_value());
    expectDatasetsBitEqual(hit->closedWorld, entry.closedWorld);
    expectDatasetsBitEqual(hit->openWorld, entry.openWorld);
}

} // namespace
} // namespace bigfish::core
