/**
 * @file
 * StageCache: the content-addressed store behind `--cache-dir` (and its
 * `--resume` spelling) — the pipeline's one persistence layer.
 *
 * The stage graph (core/stage.hh) makes every pipeline phase a pure
 * function of its configuration and its upstream outputs, so any
 * stage's output can be reused across runs that share its fingerprint:
 * collected (world, site, run) cells, featurized datasets, trained fold
 * models (ml/serialize snapshots) and per-fold evaluation scores. A hit
 * replays the payload bit-identically: the codecs below write doubles
 * as their little-endian IEEE-754 bits, so a cached run's artifact
 * matches the uncached run's except for phase timings and cache
 * provenance.
 *
 * Entries are keyed by (kind, fingerprint): the kind names the payload
 * namespace ("cell", "featurized", "model", "scores") and the
 * fingerprint is the owning stage's input fingerprint (config ⊕
 * upstream fingerprints, core/stage.hh) — for a cell, the collection
 * fingerprint mixed with its (world, site, run). Any input change
 * simply misses: stale payloads can never leak into a non-matching run.
 *
 * Durability contract: entries are committed with atomicWriteFile
 * (write-temp-fsync-rename, unique temp names), and every entry carries
 * a whole-file CRC32 trailer (base/hash.hh). A torn, interleaved or
 * bit-flipped entry is detected on lookup, removed, and reported as a
 * miss — the pipeline falls back to recomputing, never to wrong data.
 * Because cells are stored the moment they finish, a kill -9 loses only
 * the cells in flight, and the rerun recollects exactly those.
 * Concurrent writers of the same key race to write *identical* bytes
 * (the pipeline is deterministic), so whichever rename lands last is
 * correct.
 */

#ifndef BF_CORE_STAGE_CACHE_HH
#define BF_CORE_STAGE_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/trace.hh"
#include "base/result.hh"
#include "ml/dataset.hh"
#include "ml/evaluation.hh"
#include "sim/faults.hh"

namespace bigfish::core {

/** Lookup/store accounting for one StageCache instance. */
struct StageCacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Entries dropped by lookup() as torn/corrupt (counted as misses too). */
    std::size_t corrupt = 0;
    std::size_t stores = 0;
};

/**
 * Content-addressed store of stage payloads, one file per (kind, key)
 * under a cache directory. Thread-safe: collection cells and fold
 * stages probe and store concurrently from pool workers.
 */
class StageCache
{
  public:
    /**
     * Opens the cache at @p dir, creating the directory as needed.
     * @p faults supplies the IO-layer fault plan (sim/faults.hh), which
     * acts on put() of "cell" entries only.
     */
    [[nodiscard]] static Result<StageCache>
    open(const std::string &dir,
         const sim::FaultConfig &faults = sim::FaultConfig::none());

    /**
     * The cached payload for (@p kind, @p key), or nullopt on miss. A
     * present but unreadable entry (CRC failure, malformed framing,
     * kind/key mismatch) is removed and reported as a miss.
     */
    [[nodiscard]] std::optional<std::string> lookup(std::string_view kind,
                                                    std::uint64_t key);

    /**
     * Atomically commits @p payload under (kind, key). A "cell" put is
     * subject to the configured IO faults: it may deterministically
     * corrupt the entry on disk, or tear it and hard-crash the process.
     */
    [[nodiscard]] Status put(std::string_view kind, std::uint64_t key,
                             std::string_view payload);

    /**
     * Drops one entry (used when a payload passes the CRC but fails
     * its semantic decode — dead weight either way).
     */
    void remove(std::string_view kind, std::uint64_t key);

    /** The entry file path for (kind, key) (tests and diagnostics). */
    std::string entryPath(std::string_view kind, std::uint64_t key) const;

    const std::string &dir() const { return dir_; }
    StageCacheStats stats() const;

    // --- Framing internals, exposed for tests -------------------------
    /** Frames @p payload with the versioned header + CRC32 trailer. */
    static std::string frame(std::string_view kind, std::uint64_t key,
                             std::string_view payload);
    /** Inverse of frame(); false on any malformation. */
    static bool unframe(const std::string &bytes, std::string_view kind,
                        std::uint64_t key, std::string &payload);

  private:
    StageCache(std::string dir, const sim::FaultConfig &faults)
        : dir_(std::move(dir)), faults_(faults)
    {
    }

    std::string dir_;
    sim::FaultConfig faults_;
    StageCacheStats stats_;
    /** Cells put by *this* instance (drives the crash fault). */
    std::size_t cellsPut_ = 0;
    /** unique_ptr keeps the class movable (Result<StageCache>). */
    std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

// ---------------------------------------------------------------------
// Stage payload codecs: one little-endian binary layout (fixed-width
// integers, doubles as their IEEE-754 bits, every sequence count-
// prefixed), so a decoded payload is bit-identical to the encoded one.
// Decoders treat the payload as untrusted input: every count is checked
// against the bytes that remain before anything is allocated, and any
// malformation or trailing byte yields nullopt.

/** Everything one attacker's evaluation consumes downstream of
 *  featurization (the "featurized" payload). */
struct FeaturizedEntry
{
    ml::Dataset closedWorld;
    /** Present only when the run had openWorldExtra > 0. */
    ml::Dataset openWorld;
    bool hasOpenWorld = false;
    /** Trace accounting replayed into FingerprintResult. */
    std::uint64_t droppedTraces = 0;
    std::uint64_t collectedTraces = 0;
};

std::string encodeFeaturized(const FeaturizedEntry &entry);
[[nodiscard]] std::optional<FeaturizedEntry>
decodeFeaturized(const std::string &payload);

/** One fold's raw evaluation outputs (the "scores" payload). */
std::string encodeFoldScores(const ml::FoldScores &fold);
[[nodiscard]] std::optional<ml::FoldScores>
decodeFoldScores(const std::string &payload);

/**
 * One collected (world, site, run) cell: each attacker's trace or, for
 * a dropped trace, its error Status — accounting must survive a replay
 * too (the "cell" payload).
 */
using CollectedCell = std::vector<Result<attack::Trace>>;

/** The entry kind of collected cells (the kind the IO faults act on). */
inline constexpr std::string_view kCellKind = "cell";

std::string encodeCell(const CollectedCell &cell);
[[nodiscard]] std::optional<CollectedCell>
decodeCell(const std::string &payload);

} // namespace bigfish::core

#endif // BF_CORE_STAGE_CACHE_HH
