#include "sim/faults.hh"

#include <algorithm>
#include <cmath>

#include "sim/interrupt.hh"

namespace bigfish::sim {

bool
FaultConfig::enabled() const
{
    return dropInterruptProb > 0.0 || duplicateInterruptProb > 0.0 ||
           timerSkewPpm != 0.0 || timerBackstepProb > 0.0 ||
           stallsPerSecond > 0.0 || truncateProb > 0.0;
}

FaultPlan::FaultPlan(const FaultConfig &config, std::uint64_t trace_salt)
    : config_(config)
{
    const std::uint64_t base =
        mix64(config.seed ^ 0xfa0172a5b6c9d3e1ULL) ^ mix64(trace_salt);
    timelineSeed_ = mix64(base ^ 1);
    timerSeed_ = mix64(base ^ 2);
    truncateSeed_ = mix64(base ^ 3);
}

void
FaultPlan::applyToTimeline(RunTimeline &timeline) const
{
    const bool delivery = config_.dropInterruptProb > 0.0 ||
                          config_.duplicateInterruptProb > 0.0;
    const bool stalls = config_.stallsPerSecond > 0.0;
    if (!delivery && !stalls)
        return;

    Rng rng(timelineSeed_);
    std::vector<StolenInterval> faulted;
    faulted.reserve(timeline.stolen.size());
    for (const StolenInterval &s : timeline.stolen) {
        if (delivery && rng.bernoulli(config_.dropInterruptProb))
            continue; // Delivery lost.
        faulted.push_back(s);
        if (delivery && config_.duplicateInterruptProb > 0.0 &&
            rng.bernoulli(config_.duplicateInterruptProb)) {
            StolenInterval dup = s;
            dup.arrival =
                s.end() + static_cast<TimeNs>(rng.exponential(
                              static_cast<double>(config_.duplicateDelay)));
            if (dup.arrival < timeline.duration)
                faulted.push_back(dup);
        }
    }

    if (stalls) {
        const double duration_s = static_cast<double>(timeline.duration) /
                                  static_cast<double>(kSec);
        const int n = rng.poisson(config_.stallsPerSecond * duration_s);
        for (int i = 0; i < n; ++i) {
            StolenInterval stall;
            stall.arrival = static_cast<TimeNs>(
                rng.uniform() * static_cast<double>(timeline.duration));
            stall.kind = InterruptKind::UntraceableStall;
            stall.duration = static_cast<TimeNs>(
                rng.lognormal(static_cast<double>(config_.stallMedian),
                              config_.stallSigma));
            faulted.push_back(stall);
        }
    }

    normalizeTimeline(faulted);
    // Clamp anything serialization pushed past the end of the run, the
    // same way the synthesizer does for its own output.
    while (!faulted.empty() &&
           faulted.back().arrival >= timeline.duration)
        faulted.pop_back();
    if (!faulted.empty() && faulted.back().end() > timeline.duration)
        faulted.back().duration =
            timeline.duration - faulted.back().arrival;
    timeline.stolen = std::move(faulted);
}

std::unique_ptr<timers::TimerModel>
FaultPlan::wrapTimer(std::unique_ptr<timers::TimerModel> inner) const
{
    if (config_.timerSkewPpm == 0.0 && config_.timerBackstepProb <= 0.0)
        return inner;
    return std::make_unique<FaultyTimer>(std::move(inner), config_,
                                         timerSeed_);
}

std::size_t
FaultPlan::truncatedLength(std::size_t periods) const
{
    if (config_.truncateProb <= 0.0 || periods == 0)
        return periods;
    Rng rng(truncateSeed_);
    if (!rng.bernoulli(config_.truncateProb))
        return periods;
    const double keep = rng.uniform(config_.truncateKeepMin,
                                    config_.truncateKeepMax);
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(periods) *
                   std::clamp(keep, 0.0, 1.0)));
}

FaultyTimer::FaultyTimer(std::unique_ptr<timers::TimerModel> inner,
                         const FaultConfig &config, std::uint64_t seed)
    : inner_(std::move(inner)), config_(config), seed_(seed)
{
}

void
FaultyTimer::reset(std::uint64_t seed)
{
    // Re-key both the inner timer and the backstep hash so a re-seeded
    // trace draws an independent fault pattern.
    inner_->reset(seed);
    seed_ = mix64(seed ^ 0xbac5e1eaULL);
}

TimeNs
FaultyTimer::observe(TimeNs real)
{
    // Rate skew: the attacker's timebase runs fast (positive ppm) or
    // slow. Applied to real time before the inner defense so a defended
    // timer still sees a monotone input.
    TimeNs skewed = real;
    if (config_.timerSkewPpm != 0.0) {
        skewed += static_cast<TimeNs>(std::llround(
            static_cast<double>(real) * config_.timerSkewPpm * 1e-6));
        skewed = std::max<TimeNs>(skewed, 0);
    }
    TimeNs observed = inner_->observe(skewed);

    // Backward steps: a keyed hash decides, per real-time quantum,
    // whether reads in that quantum are stepped back and by how much.
    // Pure in `real`, so identical replays observe identical faults.
    if (config_.timerBackstepProb > 0.0 &&
        config_.timerBackstepQuantum > 0) {
        const std::uint64_t bucket =
            static_cast<std::uint64_t>(real / config_.timerBackstepQuantum);
        const std::uint64_t h = mix64(seed_ ^ mix64(bucket));
        const double u =
            static_cast<double>(h >> 11) * 0x1.0p-53; // [0, 1)
        if (u < config_.timerBackstepProb) {
            const TimeNs step = static_cast<TimeNs>(
                mix64(h ^ 0x5b7e1ULL) %
                static_cast<std::uint64_t>(
                    std::max<TimeNs>(config_.timerBackstepMax, 1)));
            observed = std::max<TimeNs>(observed - step, 0);
        }
    }
    return observed;
}

} // namespace bigfish::sim
