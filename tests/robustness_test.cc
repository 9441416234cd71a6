/**
 * @file
 * Corrupted-input robustness tests for the stage cache, the one
 * persistence layer.
 *
 * Part 1 (collected cells in the stage cache): pins the `--resume`
 * bit-identity contract — a "cell" entry truncated at ANY byte offset
 * (a torn write) misses cleanly and the resumed collection produces
 * bit-identical traces and artifacts to an uninterrupted run; a
 * corrupted cell is dropped without losing its neighbors; IO fault
 * injection (crash-after-N, torn write, entry corruption) exercises
 * the same paths deterministically. The suites keep the names of the
 * journal these tests first pinned, so the tier-1 record reads across
 * the change.
 *
 * Part 2 (fold models in the stage cache): a rerun whose fold scores
 * were deleted replays every trained model from its "model" entry and
 * reproduces the cold run's results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/stage_cache.hh"
#include "ml/classifier.hh"

namespace bigfish::core {
namespace {

using attack::Trace;

std::string
cacheDir(const std::string &leaf)
{
    // Fresh per-test directory: cache entries persist across test
    // processes by design, so a stale one from an earlier run must not
    // leak in.
    const std::string dir = testing::TempDir() + "bf_cells_" + leaf;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return dir;
}

/** Opens the cache at @p dir (a new instance stands for a new process). */
StageCache
openCache(const std::string &dir,
          const sim::FaultConfig &faults = sim::FaultConfig::none())
{
    auto opened = StageCache::open(dir, faults);
    EXPECT_TRUE(opened.isOk()) << opened.status().toString();
    return std::move(opened).valueOrDie();
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(out.write(
        bytes.data(), static_cast<std::streamsize>(bytes.size()))))
        << path;
}

/** A deterministic trace with "awkward" doubles (inexact fractions);
 *  tiny, so the every-byte-offset loop below stays fast. */
Trace
exampleTrace(std::uint64_t seed, int n = 4)
{
    Rng rng(seed);
    Trace trace;
    trace.siteId = static_cast<SiteId>(seed % 7);
    trace.label = static_cast<Label>(seed % 5);
    trace.period = 5'000'000;
    trace.attacker = (seed % 2) ? "loop-counting" : "sweep-counting";
    for (int i = 0; i < n; ++i) {
        // Irrational-ish values: exercises exact double round-tripping.
        trace.counts.push_back(rng.uniform() * 1e5 / 3.0);
        trace.wallTimes.push_back(
            5'000'000 + rng.uniformInt(-40000, 40000));
    }
    return trace;
}

/** One collected cell: two attacker slots, optionally one dropped. */
CollectedCell
exampleCell(std::uint64_t seed, bool with_drop = false)
{
    CollectedCell cell;
    cell.emplace_back(exampleTrace(seed));
    if (with_drop)
        cell.emplace_back(
            dataError("trace truncated by fault injection"));
    else
        cell.emplace_back(exampleTrace(seed ^ 0xabcdef));
    return cell;
}

Status
putCell(StageCache &cache, std::uint64_t key, const CollectedCell &cell)
{
    return cache.put("cell", key, encodeCell(cell));
}

std::optional<CollectedCell>
lookupCell(StageCache &cache, std::uint64_t key)
{
    const std::optional<std::string> payload = cache.lookup("cell", key);
    if (!payload)
        return std::nullopt;
    return decodeCell(*payload);
}

void
expectTracesBitIdentical(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.siteId, b.siteId);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.attacker, b.attacker);
    ASSERT_EQ(a.counts.size(), b.counts.size());
    for (std::size_t i = 0; i < a.counts.size(); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]) << "count " << i;
    ASSERT_EQ(a.wallTimes.size(), b.wallTimes.size());
    for (std::size_t i = 0; i < a.wallTimes.size(); ++i)
        EXPECT_EQ(a.wallTimes[i], b.wallTimes[i]) << "wall " << i;
}

void
expectCellsBitIdentical(const CollectedCell &a, const CollectedCell &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isOk(), b[i].isOk()) << "slot " << i;
        if (a[i].isOk())
            expectTracesBitIdentical(a[i].value(), b[i].value());
        else {
            EXPECT_EQ(a[i].status().code(), b[i].status().code());
            EXPECT_EQ(a[i].status().message(), b[i].status().message());
        }
    }
}

TEST(CheckpointJournal, RoundTripsCellsIncludingDroppedTraces)
{
    const std::string dir = cacheDir("roundtrip");
    const auto cell_a = exampleCell(1);
    const auto cell_b = exampleCell(2, /*with_drop=*/true);
    {
        StageCache cache = openCache(dir);
        ASSERT_TRUE(putCell(cache, 1, cell_a).isOk());
        ASSERT_TRUE(putCell(cache, 2, cell_b).isOk());
        EXPECT_FALSE(lookupCell(cache, 3).has_value());
    }

    // Fresh process: everything replays from disk, bit-identically —
    // including the dropped slot's error code and message.
    StageCache cache = openCache(dir);
    const auto a = lookupCell(cache, 1);
    const auto b = lookupCell(cache, 2);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    expectCellsBitIdentical(*a, cell_a);
    expectCellsBitIdentical(*b, cell_b);
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(CheckpointJournal, FingerprintSeparatesTraceAffectingConfigs)
{
    const CollectionConfig base;
    const attack::AttackerKind one[] = {
        attack::AttackerKind::LoopCounting};
    const attack::AttackerKind two[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const auto fp = [&](const CollectionConfig &c,
                        std::span<const attack::AttackerKind> kinds) {
        return collectionFingerprint(c, 7, 4, 8, kinds);
    };

    const std::uint64_t reference = fp(base, one);
    EXPECT_EQ(reference, fp(base, one)) << "fingerprint must be stable";

    CollectionConfig seeded = base;
    seeded.seed = base.seed + 1;
    EXPECT_NE(fp(seeded, one), reference);

    CollectionConfig browser = base;
    browser.browser = web::BrowserProfile::torBrowser();
    EXPECT_NE(fp(browser, one), reference);

    CollectionConfig machine = base;
    machine.machine = sim::MachineConfig::windowsWorkstation();
    EXPECT_NE(fp(machine, one), reference);

    CollectionConfig signal_faults = base;
    signal_faults.faults.truncateProb = 0.5;
    EXPECT_NE(fp(signal_faults, one), reference)
        << "signal faults change trace content, so they key the cells";

    EXPECT_NE(fp(base, two), reference);
    EXPECT_NE(collectionFingerprint(base, 8, 4, 8, one), reference);
    EXPECT_NE(collectionFingerprint(base, 7, 5, 8, one), reference);

    // IO faults corrupt persistence, never trace content: a resumed
    // run WITHOUT the crash fault must find the crashed run's cells.
    CollectionConfig io_faults = base;
    io_faults.faults.ioCrashAfterRecords = 3;
    io_faults.faults.ioTornWriteBytes = 10;
    io_faults.faults.ioCorruptRecordProb = 1.0;
    EXPECT_EQ(fp(io_faults, one), reference);
}

TEST(CheckpointJournal, TruncationAtEveryByteOffsetRepairsAndResumes)
{
    const std::string dir = cacheDir("truncate");
    constexpr int kCells = 5;
    constexpr std::uint64_t kTorn = 2;

    std::vector<CollectedCell> cells;
    for (int i = 0; i < kCells; ++i)
        cells.push_back(exampleCell(100 + i, i % 2 == 1));
    std::string path;
    {
        StageCache cache = openCache(dir);
        for (int i = 0; i < kCells; ++i)
            ASSERT_TRUE(putCell(cache, i, cells[i]).isOk());
        path = cache.entryPath("cell", kTorn);
    }
    const std::string full = readAll(path);
    ASSERT_GT(full.size(), 100u);

    // A write of cell kTorn torn at every byte offset: the rerun must
    // always see it as a miss (never as wrong data), keep every other
    // cell, and re-store exactly the missing one, after which every
    // cell is bit-identical to the uninterrupted run's.
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        SCOPED_TRACE("truncated at byte " + std::to_string(cut));
        writeAll(path, full.substr(0, cut));

        StageCache resumed = openCache(dir);
        int missing = 0;
        for (int i = 0; i < kCells; ++i) {
            const auto cached = lookupCell(resumed, i);
            if (cached.has_value()) {
                expectCellsBitIdentical(*cached, cells[i]);
            } else {
                ++missing;
                EXPECT_EQ(static_cast<std::uint64_t>(i), kTorn);
                ASSERT_TRUE(putCell(resumed, i, cells[i]).isOk());
            }
        }
        EXPECT_EQ(missing, cut < full.size() ? 1 : 0);

        // After the resume, a fresh open sees every cell.
        StageCache reopened = openCache(dir);
        for (int i = 0; i < kCells; ++i) {
            const auto cached = lookupCell(reopened, i);
            ASSERT_TRUE(cached.has_value());
            expectCellsBitIdentical(*cached, cells[i]);
        }
    }
}

TEST(CheckpointJournal, CorruptedMiddleRecordIsDroppedNotFatal)
{
    const std::string dir = cacheDir("corrupt");
    std::string path;
    {
        StageCache cache = openCache(dir);
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(putCell(cache, i, exampleCell(i)).isOk());
        path = cache.entryPath("cell", 1);
    }
    // Flip one payload byte of the middle cell.
    std::string bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x01;
    writeAll(path, bytes);

    StageCache cache = openCache(dir);
    EXPECT_TRUE(lookupCell(cache, 0).has_value());
    EXPECT_FALSE(lookupCell(cache, 1).has_value())
        << "the corrupted cell must be forgotten";
    EXPECT_TRUE(lookupCell(cache, 2).has_value())
        << "cells stored after the corrupted one must survive";
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CheckpointJournal, MismatchedFingerprintOpensADifferentJournal)
{
    // Cells are keyed by the collection fingerprint: a collector under
    // another fingerprint finds none of them, so stale progress can
    // never leak across configurations.
    CollectionConfig config;
    config.seed = 5;
    config.browser.traceDuration = 2 * kSec;
    const web::SiteCatalog catalog(2, 7);
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting};
    StageCache cache = openCache(cacheDir("fingerprint"));

    TraceCollector a(config);
    a.setCache(&cache, 0x1111);
    ASSERT_TRUE(a.collectClosedWorldMulti(catalog, 1, kinds).isOk());
    EXPECT_EQ(cache.stats().stores, 2u);

    TraceCollector b(config);
    b.setCache(&cache, 0x2222);
    ASSERT_TRUE(b.collectClosedWorldMulti(catalog, 1, kinds).isOk());
    EXPECT_EQ(cache.stats().hits, 0u)
        << "stale progress must never leak across configurations";
    EXPECT_EQ(cache.stats().stores, 4u);

    // The original fingerprint still finds its own cells.
    ASSERT_TRUE(a.collectClosedWorldMulti(catalog, 1, kinds).isOk());
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CheckpointJournal, IoCorruptFaultProducesRecordsTheRepairDrops)
{
    const std::string dir = cacheDir("iofault");
    sim::FaultConfig faults = sim::FaultConfig::none();
    faults.ioCorruptRecordProb = 1.0;
    faults.seed = 99;
    ASSERT_TRUE(faults.ioEnabled());
    {
        StageCache cache = openCache(dir, faults);
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(putCell(cache, i, exampleCell(i)).isOk());
        // IO faults act on collected cells only.
        ASSERT_TRUE(cache.put("scores", 7, "intact").isOk());
    }
    StageCache cache = openCache(dir);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(lookupCell(cache, i).has_value()) << "cell " << i;
    EXPECT_EQ(cache.stats().corrupt, 3u)
        << "every entry was corrupted, every entry must be dropped";
    EXPECT_EQ(cache.lookup("scores", 7), std::optional<std::string>("intact"));
}

TEST(CheckpointJournalDeathTest, CrashFaultAbortsAndLeavesRepairableTornPrefix)
{
    const std::string dir = cacheDir("crash");
    sim::FaultConfig faults = sim::FaultConfig::none();
    faults.ioCrashAfterRecords = 1;
    faults.ioTornWriteBytes = 20;

    const auto crash = [&] {
        auto cache = StageCache::open(dir, faults);
        if (!cache.isOk())
            return;
        // The first put succeeds; the second hits the crash fault: a
        // torn 20-byte prefix reaches the disk, then abort().
        (void)putCell(cache.value(), 0, exampleCell(1));
        (void)putCell(cache.value(), 1, exampleCell(2));
    };
    EXPECT_DEATH(crash(), "simulated crash");

    StageCache cache = openCache(dir);
    EXPECT_EQ(readAll(cache.entryPath("cell", 1)).size(), 20u)
        << "the torn prefix must have reached the disk";
    const auto cell = lookupCell(cache, 0);
    ASSERT_TRUE(cell.has_value())
        << "the cell stored before the crash must survive";
    expectCellsBitIdentical(*cell, exampleCell(1));
    EXPECT_FALSE(lookupCell(cache, 1).has_value())
        << "the torn entry must be detected and dropped";
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(CheckpointJournal, PipelineResumeIsBitIdenticalToUninterruptedRun)
{
    CollectionConfig config;
    config.seed = 11;
    PipelineConfig pipeline;
    pipeline.numSites = 4;
    pipeline.tracesPerSite = 6;
    pipeline.openWorldExtra = 8;
    pipeline.featureLen = 64;
    pipeline.eval.folds = 2;
    pipeline.factory = ml::knnFactory(3);

    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    // Reference: no cache at all.
    const auto reference =
        runFingerprintingShared(config, kinds, pipeline);
    ASSERT_TRUE(reference.isOk());

    const auto expectSameResults =
        [&](const std::vector<FingerprintResult> &got) {
            ASSERT_EQ(got.size(), reference.value().size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                const auto &r = reference.value()[i];
                const auto &g = got[i];
                EXPECT_EQ(g.closedWorld.top1Mean, r.closedWorld.top1Mean);
                EXPECT_EQ(g.closedWorld.foldTop1, r.closedWorld.foldTop1);
                EXPECT_EQ(g.openWorld.openWorld.combinedAccuracy,
                          r.openWorld.openWorld.combinedAccuracy);
                EXPECT_EQ(g.collectedTraces, r.collectedTraces);
                EXPECT_EQ(g.droppedTraces, r.droppedTraces);
            }
        };

    // Cached cold run: cells are stored, results unchanged.
    pipeline.cacheDir = cacheDir("pipeline");
    const auto cold = runFingerprintingShared(config, kinds, pipeline);
    ASSERT_TRUE(cold.isOk());
    expectSameResults(cold.value());

    // Warm run: everything replays from the cache, results unchanged.
    const auto warm = runFingerprintingShared(config, kinds, pipeline);
    ASSERT_TRUE(warm.isOk());
    expectSameResults(warm.value());

    // Killed mid-collection: only cell entries survive, and every other
    // one is torn at 60 % of its bytes. The rerun replays the intact
    // cells and recollects the rest, and must still be bit-identical to
    // the uninterrupted run.
    std::vector<std::filesystem::path> entries;
    for (const auto &entry :
         std::filesystem::directory_iterator(pipeline.cacheDir))
        entries.push_back(entry.path());
    std::sort(entries.begin(), entries.end());
    std::size_t cells = 0, torn = 0;
    for (const auto &path : entries) {
        if (path.filename().string().rfind("cell-", 0) != 0) {
            std::filesystem::remove(path);
            continue;
        }
        if (cells++ % 2 == 0) {
            const std::string bytes = readAll(path.string());
            writeAll(path.string(), bytes.substr(0, bytes.size() * 3 / 5));
            ++torn;
        }
    }
    ASSERT_EQ(cells, 4u * 6u + 8u) << "one entry per collected cell";
    ASSERT_GT(torn, 0u);

    const auto resumed = runFingerprintingShared(config, kinds, pipeline);
    ASSERT_TRUE(resumed.isOk());
    expectSameResults(resumed.value());
}

/** Entry file names in @p dir that start with one of @p prefixes. */
std::vector<std::string>
entryNames(const std::string &dir,
           std::initializer_list<const char *> prefixes)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        for (const char *prefix : prefixes)
            if (name.rfind(prefix, 0) == 0)
                names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

TEST(StageCacheReplay, GroupMemberRecollectsFromOneBasePerCell)
{
    // Chrome and Firefox on one machine form one timeline group. With
    // the second member's collected cells and featurized datasets gone,
    // a rerun must skip the first member's Collect, recollect the second
    // member from one base timeline per (world, site, run), and still
    // match the cold run.
    CollectionConfig chrome;
    chrome.seed = 17;
    chrome.browser.traceDuration = 2 * kSec;
    CollectionConfig firefox = chrome;
    firefox.browser = web::BrowserProfile::firefox();
    firefox.browser.traceDuration = chrome.browser.traceDuration;
    const std::vector<CollectionConfig> group = {chrome, firefox};

    PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 4;
    pipeline.openWorldExtra = 3;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 2;
    pipeline.factory = ml::knnFactory(3);
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    // The first member's entries, from a run of that member alone.
    pipeline.cacheDir = cacheDir("group_first");
    ASSERT_TRUE(runFingerprintingShared(chrome, kinds, pipeline).isOk());
    const std::vector<std::string> first_entries =
        entryNames(pipeline.cacheDir, {"cell-", "featurized-"});

    pipeline.cacheDir = cacheDir("group_replay");
    const auto cold = runFingerprintingShared(group, kinds, pipeline);
    ASSERT_TRUE(cold.isOk());
    std::size_t deleted = 0;
    for (const std::string &name :
         entryNames(pipeline.cacheDir, {"cell-", "featurized-"})) {
        if (std::binary_search(first_entries.begin(), first_entries.end(),
                               name))
            continue;
        std::filesystem::remove(pipeline.cacheDir + "/" + name);
        ++deleted;
    }
    ASSERT_EQ(deleted, 4u * 3u + 3u + 2u)
        << "the second member's cells and featurized entries";

    const auto rerun = runFingerprintingShared(group, kinds, pipeline);
    ASSERT_TRUE(rerun.isOk());
    const StageReport &first_collect = rerun.value()[0][0].stages.front();
    const StageReport &second_collect = rerun.value()[1][0].stages.front();
    EXPECT_EQ(first_collect.phase, "collect");
    EXPECT_EQ(first_collect.cache, StageCacheState::Skipped);
    EXPECT_TRUE(first_collect.sim.empty());
    // The second member synthesized every base once, as the cold run's
    // leader did for the whole group.
    const StageReport &cold_collect = cold.value()[0][0].stages.front();
    EXPECT_GT(second_collect.sim.interruptsSynthesized, 0);
    EXPECT_EQ(second_collect.sim.interruptsSynthesized,
              cold_collect.sim.interruptsSynthesized);
    EXPECT_EQ(second_collect.sim.bytesSorted, cold_collect.sim.bytesSorted);
    EXPECT_EQ(entryNames(pipeline.cacheDir, {"cell-", "featurized-"}).size(),
              first_entries.size() + deleted);

    for (std::size_t c = 0; c < group.size(); ++c) {
        for (std::size_t a = 0; a < 2; ++a) {
            const FingerprintResult &r = rerun.value()[c][a];
            const FingerprintResult &k = cold.value()[c][a];
            EXPECT_EQ(r.closedWorld.foldTop1, k.closedWorld.foldTop1);
            EXPECT_EQ(r.closedWorld.foldTopK, k.closedWorld.foldTopK);
            EXPECT_EQ(r.openWorld.foldTop1, k.openWorld.foldTop1);
            EXPECT_EQ(r.openWorld.openWorld.combinedAccuracy,
                      k.openWorld.openWorld.combinedAccuracy);
            EXPECT_EQ(r.collectedTraces, k.collectedTraces);
        }
    }
}

TEST(StageCacheReplay, ModelEntriesReplayWhenScoresAreDeleted)
{
    // With every fold's scores gone, a rerun must decode each trained
    // fold model from its "model" entry (no retraining) and score it
    // back to the cold run's results, for the weight-file network
    // payload and for the softmax model's own payload alike.
    ml::CnnLstmParams cnn = ml::CnnLstmParams::traceDefaults();
    cnn.convFilters = 4;
    cnn.lstmUnits = 4;
    cnn.maxEpochs = 3;
    const std::pair<std::string, ml::ClassifierFactory> factories[] = {
        {"cnn-lstm", ml::cnnLstmFactory(cnn)},
        {"softmax", ml::softmaxRegressionFactory()}};
    for (const auto &[name, factory] : factories) {
        SCOPED_TRACE(name);
        CollectionConfig config;
        config.seed = 13;
        PipelineConfig pipeline;
        pipeline.numSites = 4;
        pipeline.tracesPerSite = 6;
        pipeline.openWorldExtra = 8;
        pipeline.featureLen = 64;
        pipeline.eval.folds = 2;
        pipeline.factory = factory;
        pipeline.cacheDir = cacheDir("model_replay_" + name);
        const attack::AttackerKind kinds[] = {
            attack::AttackerKind::LoopCounting};

        const auto cold = runFingerprintingShared(config, kinds, pipeline);
        ASSERT_TRUE(cold.isOk());
        std::size_t deleted = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(pipeline.cacheDir)) {
            if (entry.path().filename().string().rfind("scores-", 0) == 0) {
                std::filesystem::remove(entry.path());
                ++deleted;
            }
        }
        ASSERT_EQ(deleted, 4u) << "2 worlds x 2 folds";

        const auto replay = runFingerprintingShared(config, kinds, pipeline);
        ASSERT_TRUE(replay.isOk());
        ASSERT_EQ(replay.value().size(), 1u);
        std::size_t trains = 0;
        for (const StageReport &report : replay.value()[0].stages) {
            if (report.phase != "train")
                continue;
            ++trains;
            EXPECT_EQ(report.cache, StageCacheState::Hit) << report.name;
        }
        EXPECT_EQ(trains, 4u);

        const FingerprintResult &c = cold.value()[0];
        const FingerprintResult &r = replay.value()[0];
        EXPECT_EQ(r.closedWorld.foldTop1, c.closedWorld.foldTop1);
        EXPECT_EQ(r.closedWorld.foldTopK, c.closedWorld.foldTopK);
        EXPECT_EQ(r.openWorld.foldTop1, c.openWorld.foldTop1);
        EXPECT_EQ(r.openWorld.openWorld.combinedAccuracy,
                  c.openWorld.openWorld.combinedAccuracy);
        EXPECT_EQ(r.openWorld.openWorld.sensitiveAccuracy,
                  c.openWorld.openWorld.sensitiveAccuracy);
    }
}

} // namespace
} // namespace bigfish::core
