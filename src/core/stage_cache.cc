#include "core/stage_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/bytes.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace bigfish::core {

namespace {

namespace fs = std::filesystem;

constexpr char kHeaderPrefix[] = "# bigfish-stage-cache v2 kind=";
constexpr char kEntrySuffix[] = ".bfc";
/** The CRC32 trailer: the last four bytes, little-endian. */
constexpr std::size_t kTrailerBytes = sizeof(std::uint32_t);

/** The header line that opens every (kind, key) entry. */
std::string
headerLine(std::string_view kind, std::uint64_t key)
{
    std::string line = kHeaderPrefix;
    line += kind;
    line += " key=";
    line += hex16(key);
    line += '\n';
    return line;
}

// The payload layout assumes these widths (base/bytes.hh pins the
// byte order and the IEEE-754 widths).
static_assert(sizeof(Label) == 4 && sizeof(SiteId) == 4 &&
                  sizeof(TimeNs) == 8,
              "the cache payload layout assumes these widths");

/** Doubles-per-row matrix (dataset features, fold scores). */
void
writeRows(ByteWriter &out, const std::vector<std::vector<double>> &rows)
{
    out.scalar<std::uint64_t>(rows.size());
    for (const auto &row : rows)
        out.array(row);
}

void
readRows(ByteReader &in, std::vector<std::vector<double>> &rows)
{
    // Each row carries at least its own 8-byte count.
    rows.resize(in.count(8));
    for (auto &row : rows)
        in.array(row);
}

/** A dataset: class count, labels, then one feature row per label. */
void
writeDataset(ByteWriter &out, const ml::Dataset &data)
{
    out.scalar<std::int32_t>(data.numClasses);
    out.array(data.labels);
    writeRows(out, data.features);
}

/** Inverse of writeDataset(); false unless labels and rows pair up. */
bool
readDataset(ByteReader &in, ml::Dataset &data)
{
    data.numClasses = in.get<std::int32_t>();
    in.array(data.labels);
    readRows(in, data.features);
    return in.ok() && data.labels.size() == data.features.size();
}

} // namespace

Result<StageCache>
StageCache::open(const std::string &dir, const sim::FaultConfig &faults)
{
    Status created = createDirectories(dir);
    if (!created.isOk())
        return created;
    return StageCache(dir, faults);
}

std::string
StageCache::entryPath(std::string_view kind, std::uint64_t key) const
{
    return dir_ + "/" + std::string(kind) + "-" + hex16(key) + kEntrySuffix;
}

std::string
StageCache::frame(std::string_view kind, std::uint64_t key,
                  std::string_view payload)
{
    std::string framed = headerLine(kind, key);
    framed += payload;
    const std::uint32_t crc = crc32(framed);
    framed.append(reinterpret_cast<const char *>(&crc), kTrailerBytes);
    return framed;
}

bool
StageCache::unframe(const std::string &bytes, std::string_view kind,
                    std::uint64_t key, std::string &payload)
{
    // Verify the CRC trailer first: everything else assumes an intact
    // entry.
    if (bytes.size() < kTrailerBytes)
        return false;
    const std::size_t body = bytes.size() - kTrailerBytes;
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + body, kTrailerBytes);
    if (crc32(std::string_view(bytes.data(), body)) != stored)
        return false;

    const std::string header = headerLine(kind, key);
    if (header.size() > body || bytes.compare(0, header.size(), header) != 0)
        return false;
    payload.assign(bytes, header.size(), body - header.size());
    return true;
}

std::optional<std::string>
StageCache::lookup(std::string_view kind, std::uint64_t key)
{
    const std::string path = entryPath(kind, key);
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            const std::lock_guard<std::mutex> lock(*mutex_);
            ++stats_.misses;
            return std::nullopt;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = std::move(buffer).str();
    }
    std::string payload;
    if (!unframe(content, kind, key, payload)) {
        // A torn or corrupt entry is dead weight: drop it so the next
        // run re-stores a clean one, and fall back to recomputing.
        std::error_code ec;
        fs::remove(path, ec);
        warn("stage cache entry " + path +
             " failed validation; removed and treated as a miss");
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.corrupt;
        ++stats_.misses;
        return std::nullopt;
    }
    const std::lock_guard<std::mutex> lock(*mutex_);
    ++stats_.hits;
    return payload;
}

Status
StageCache::put(std::string_view kind, std::uint64_t key,
                std::string_view payload)
{
    std::string framed = frame(kind, key, payload);
    const std::string path = entryPath(kind, key);

    // --- Injected IO faults (cells only; deterministic in faults.seed
    // and the entry key, so they hit the same cells at any --threads).
    if (kind == kCellKind && faults_.ioEnabled()) {
        {
            const std::lock_guard<std::mutex> lock(*mutex_);
            if (faults_.ioCrashAfterRecords > 0 &&
                cellsPut_ >=
                    static_cast<std::size_t>(faults_.ioCrashAfterRecords)) {
                // Simulated kill -9 mid-write: a torn prefix of the
                // entry reaches its final path (as it would without the
                // atomic rename), then the process dies unwound.
                const std::size_t torn = std::min(
                    framed.size(), static_cast<std::size_t>(
                                       std::max(faults_.ioTornWriteBytes, 0)));
                FILE *out = torn > 0 ? std::fopen(path.c_str(), "wb")
                                     : nullptr;
                if (out != nullptr) {
                    std::fwrite(framed.data(), 1, torn, out);
                    std::fclose(out);
                }
                panic("fault injection: simulated crash after " +
                      std::to_string(cellsPut_) +
                      " cell entries (stage cache " + dir_ + ")");
            }
            ++cellsPut_;
        }
        const std::uint64_t word =
            mix64(mix64(faults_.seed ^ 0x8d1c'42a7'55e0'3b96ULL) ^
                  mix64(key));
        const double uniform = static_cast<double>(word >> 11) * 0x1.0p-53;
        if (uniform < faults_.ioCorruptRecordProb) {
            // Flip one payload byte *after* the CRC was computed; the
            // lookup must detect and drop exactly this entry.
            const std::size_t header = framed.find('\n') + 1;
            const std::size_t span = framed.size() - kTrailerBytes - header;
            if (span > 0)
                framed[header + (mix64(word) % span)] ^= 0x01;
        }
    }

    Status written = atomicWriteFile(path, framed);
    if (written.isOk()) {
        const std::lock_guard<std::mutex> lock(*mutex_);
        ++stats_.stores;
    }
    return written;
}

void
StageCache::remove(std::string_view kind, std::uint64_t key)
{
    std::error_code ec;
    fs::remove(entryPath(kind, key), ec);
}

StageCacheStats
StageCache::stats() const
{
    const std::lock_guard<std::mutex> lock(*mutex_);
    return stats_;
}

std::string
encodeFeaturized(const FeaturizedEntry &entry)
{
    ByteWriter out;
    out.scalar<std::uint64_t>(entry.droppedTraces);
    out.scalar<std::uint64_t>(entry.collectedTraces);
    out.scalar<std::uint8_t>(entry.hasOpenWorld ? 1 : 0);
    writeDataset(out, entry.closedWorld);
    if (entry.hasOpenWorld)
        writeDataset(out, entry.openWorld);
    return out.take();
}

std::optional<FeaturizedEntry>
decodeFeaturized(const std::string &payload)
{
    ByteReader in(payload);
    FeaturizedEntry entry;
    entry.droppedTraces = in.get<std::uint64_t>();
    entry.collectedTraces = in.get<std::uint64_t>();
    const auto open = in.get<std::uint8_t>();
    if (open > 1)
        return std::nullopt;
    entry.hasOpenWorld = open == 1;
    if (!readDataset(in, entry.closedWorld) ||
        (entry.hasOpenWorld && !readDataset(in, entry.openWorld)) ||
        !in.done())
        return std::nullopt;
    return entry;
}

std::string
encodeFoldScores(const ml::FoldScores &fold)
{
    ByteWriter out;
    writeRows(out, fold.scores);
    out.array(fold.truths);
    out.array(fold.predictions);
    return out.take();
}

std::optional<ml::FoldScores>
decodeFoldScores(const std::string &payload)
{
    ByteReader in(payload);
    ml::FoldScores fold;
    readRows(in, fold.scores);
    in.array(fold.truths);
    in.array(fold.predictions);
    if (!in.done() || fold.truths.size() != fold.scores.size() ||
        fold.predictions.size() != fold.scores.size())
        return std::nullopt;
    return fold;
}

std::string
encodeCell(const CollectedCell &cell)
{
    ByteWriter out;
    out.scalar<std::uint64_t>(cell.size());
    for (const Result<attack::Trace> &slot : cell) {
        out.scalar<std::uint8_t>(slot.isOk() ? 1 : 0);
        if (!slot.isOk()) {
            out.scalar(static_cast<std::int32_t>(slot.status().code()));
            out.str(slot.status().message());
            continue;
        }
        const attack::Trace &t = slot.value();
        out.scalar<std::int32_t>(t.siteId);
        out.scalar<std::int32_t>(t.label);
        out.scalar<std::int64_t>(t.period);
        out.str(t.attacker);
        out.array(t.counts);
        out.array(t.wallTimes);
    }
    return out.take();
}

std::optional<CollectedCell>
decodeCell(const std::string &payload)
{
    ByteReader in(payload);
    // Every slot holds at least its flag byte and a 4-byte field.
    const std::size_t slots = in.count(5);
    CollectedCell cell;
    cell.reserve(slots);
    for (std::size_t i = 0; i < slots && in.ok(); ++i) {
        const auto ok = in.get<std::uint8_t>();
        if (ok == 0) {
            const auto code = in.get<std::int32_t>();
            std::string message;
            in.str(message);
            if (code <= 0 ||
                code > static_cast<std::int32_t>(ErrorCode::Exhausted))
                return std::nullopt;
            cell.emplace_back(
                Status(static_cast<ErrorCode>(code), std::move(message)));
            continue;
        }
        if (ok != 1)
            return std::nullopt;
        attack::Trace t;
        t.siteId = in.get<std::int32_t>();
        t.label = in.get<std::int32_t>();
        t.period = in.get<std::int64_t>();
        in.str(t.attacker);
        in.array(t.counts);
        in.array(t.wallTimes);
        cell.emplace_back(std::move(t));
    }
    if (!in.done())
        return std::nullopt;
    return cell;
}

} // namespace bigfish::core
