#include "core/artifact.hh"

#include <cstdio>

#include "base/atomic_file.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "spec/spec.hh"

namespace bigfish::core {

namespace {

std::string
formatDouble(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // namespace

RunArtifact::RunArtifact(std::string experiment, spec::RunSpec spec)
    : experiment_(std::move(experiment)), spec_(std::move(spec))
{
}

void
RunArtifact::addResult(const std::string &label,
                       const FingerprintResult &result)
{
    // The per-stage table is the source of truth; the phase buckets
    // are a rollup reduced from it. Skipped stages cost nothing and
    // roll up as zero.
    for (const StageReport &report : result.stages) {
        addPhaseSeconds(report.phase, report.cpuSeconds,
                        report.wallSeconds);
        StageReport labeled = report;
        labeled.name = label + "/" + report.name;
        stages_.push_back(std::move(labeled));
    }
    collectedTraces_ += result.collectedTraces;
    droppedTraces_ += result.droppedTraces;
    addMetric(label + "_top1", result.closedWorld.top1Mean);
    if (result.hasOpenWorld)
        addMetric(label + "_open_combined",
                  result.openWorld.openWorld.combinedAccuracy);
}

void
RunArtifact::addMetric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
RunArtifact::addPhaseSeconds(const std::string &phase, double cpuSeconds,
                             double wallSeconds)
{
    if (phase == "collect") {
        collectCpuSeconds_ += cpuSeconds;
        collectWallSeconds_ += wallSeconds;
    } else if (phase == "featurize") {
        featurizeCpuSeconds_ += cpuSeconds;
        featurizeWallSeconds_ += wallSeconds;
    } else if (phase == "train") {
        trainCpuSeconds_ += cpuSeconds;
        trainWallSeconds_ += wallSeconds;
    } else if (phase == "eval") {
        evalCpuSeconds_ += cpuSeconds;
        evalWallSeconds_ += wallSeconds;
    } else {
        panic("unknown experiment phase: " + phase);
    }
}

void
RunArtifact::setSeedProvenance(SeedProvenance provenance)
{
    provenance_ = std::move(provenance);
}

void
RunArtifact::setExpected(std::vector<ExpectedValue> expected)
{
    expected_ = std::move(expected);
}

std::optional<double>
RunArtifact::findMetric(const std::string &name) const
{
    for (const auto &[metric, value] : metrics_)
        if (metric == name)
            return value;
    return std::nullopt;
}

std::string
RunArtifact::explainText() const
{
    // sim_* columns attribute where cold time goes: stages that perform
    // no simulation (and cache replays) report zeros.
    Table table({"stage", "phase", "fingerprint", "cache", "cpu_s",
                 "wall_s", "items", "dropped", "sim_events", "sim_irqs",
                 "sim_MB_sorted", "sim_events_per_s"});
    for (const StageReport &report : stages_) {
        const double events_per_s =
            report.cpuSeconds > 0.0
                ? static_cast<double>(report.sim.eventsSimulated) /
                      report.cpuSeconds
                : 0.0;
        table.addRow({report.name, report.phase, hex16(report.fingerprint),
                      stageCacheStateName(report.cache),
                      formatDouble("%.3f", report.cpuSeconds),
                      formatDouble("%.3f", report.wallSeconds),
                      std::to_string(report.items),
                      std::to_string(report.dropped),
                      std::to_string(report.sim.eventsSimulated),
                      std::to_string(report.sim.interruptsSynthesized),
                      formatDouble("%.1f",
                                   static_cast<double>(
                                       report.sim.bytesSorted) /
                                       (1024.0 * 1024.0)),
                      formatDouble("%.0f", events_per_s)});
    }
    return table.render();
}

std::string
RunArtifact::toJson() const
{
    std::string out = "{\n";
    out += "  \"schemaVersion\": " +
           std::to_string(spec::kArtifactSchemaVersion) + ",\n";
    out += "  \"experiment\": " + spec::quoteJsonString(experiment_) + ",\n";
    out += "  \"threads\": " + std::to_string(threads_) + ",\n";
    out += "  \"spec\": " + spec_.paramsJson("  ") + ",\n";
    out += "  \"seed_provenance\": {\"masterSeed\": " +
           std::to_string(provenance_.masterSeed) +
           ", \"catalogSeed\": " + std::to_string(provenance_.catalogSeed) +
           ", \"derivation\": " +
           spec::quoteJsonString(provenance_.derivation) + "},\n";
    out += "  \"expected\": {";
    bool first = true;
    for (const ExpectedValue &e : expected_) {
        if (e.name.empty())
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + spec::quoteJsonString(e.name) + ": " +
               formatDouble("%.6f", e.value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"traces\": {\"collected\": " +
           std::to_string(collectedTraces_) +
           ", \"dropped\": " + std::to_string(droppedTraces_) + "},\n";
    out += "  \"wallSeconds\": " + formatDouble("%.3f", wallSeconds_) +
           ",\n";
    out += "  \"phases\": {\"collectCpuSeconds\": " +
           formatDouble("%.3f", collectCpuSeconds_) +
           ", \"collectWallSeconds\": " +
           formatDouble("%.3f", collectWallSeconds_) +
           ", \"featurizeCpuSeconds\": " +
           formatDouble("%.3f", featurizeCpuSeconds_) +
           ", \"featurizeWallSeconds\": " +
           formatDouble("%.3f", featurizeWallSeconds_) +
           ", \"trainCpuSeconds\": " +
           formatDouble("%.3f", trainCpuSeconds_) +
           ", \"trainWallSeconds\": " +
           formatDouble("%.3f", trainWallSeconds_) +
           ", \"evalCpuSeconds\": " + formatDouble("%.3f", evalCpuSeconds_) +
           ", \"evalWallSeconds\": " +
           formatDouble("%.3f", evalWallSeconds_) + "},\n";
    // One line per stage, each carrying the *Seconds keys: timing and
    // cache provenance legitimately differ between cold and warm runs,
    // and the Seconds-line convention is what lets tooling diff
    // everything else bit-for-bit. The schema-v3 sim* counters ride on
    // the same line: the counts themselves are deterministic, but cache
    // provenance makes them cold/warm-dependent (replays report zero),
    // so they belong with the timing keys, not the diffable payload.
    out += "  \"stages\": [";
    bool first_stage = true;
    for (const StageReport &s : stages_) {
        const double events_per_s =
            s.cpuSeconds > 0.0
                ? static_cast<double>(s.sim.eventsSimulated) / s.cpuSeconds
                : 0.0;
        out += first_stage ? "\n" : ",\n";
        first_stage = false;
        out += "    {\"name\": " + spec::quoteJsonString(s.name) +
               ", \"phase\": " + spec::quoteJsonString(s.phase) +
               ", \"fingerprint\": " +
               spec::quoteJsonString(hex16(s.fingerprint)) +
               ", \"cache\": " +
               spec::quoteJsonString(stageCacheStateName(s.cache)) +
               ", \"cpuSeconds\": " + formatDouble("%.3f", s.cpuSeconds) +
               ", \"wallSeconds\": " + formatDouble("%.3f", s.wallSeconds) +
               ", \"items\": " + std::to_string(s.items) +
               ", \"dropped\": " + std::to_string(s.dropped) +
               ", \"simEvents\": " +
               std::to_string(s.sim.eventsSimulated) +
               ", \"simInterrupts\": " +
               std::to_string(s.sim.interruptsSynthesized) +
               ", \"simBytesSorted\": " +
               std::to_string(s.sim.bytesSorted) +
               ", \"simEventsPerSec\": " +
               formatDouble("%.0f", events_per_s) + "}";
    }
    out += first_stage ? "],\n" : "\n  ],\n";
    out += "  \"metrics\": {";
    first = true;
    for (const auto &[name, value] : metrics_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + spec::quoteJsonString(name) + ": " +
               formatDouble("%.6f", value);
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

Status
RunArtifact::writeJson(const std::string &path) const
{
    return atomicWriteFile(path, toJson());
}

} // namespace bigfish::core
