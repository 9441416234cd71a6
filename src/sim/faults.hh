/**
 * @file
 * Deterministic fault injection for the collection pipeline.
 *
 * The paper's central observation is that the attack *survives* noise —
 * interrupts, DVFS jitter, background apps (Sections 4-5, Table 2). A
 * production-scale deployment additionally sees outright faults: lost or
 * re-delivered interrupts, clocks that skew or step backwards (NTP slews,
 * suspend/resume), the attacker being stalled mid-measurement, and traces
 * cut short by the victim navigating away. FaultConfig describes those
 * fault processes; FaultPlan materializes one trace's deterministic fault
 * decisions so that any Table-1/2/3 configuration can be re-run under
 * injected faults and reproduce bit-identically for a fixed seed.
 *
 * All randomness is derived from (FaultConfig::seed, trace salt), and
 * every FaultPlan method re-derives its stream from a private sub-seed,
 * so the methods are idempotent and call-order independent — the property
 * the determinism tests pin down.
 */

#ifndef BF_SIM_FAULTS_HH
#define BF_SIM_FAULTS_HH

#include <cstdint>
#include <memory>

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/run_timeline.hh"
#include "timers/timer.hh"

namespace bigfish::sim {

/** The fault processes to inject into one collection configuration. */
struct FaultConfig
{
    // --- Interrupt-delivery faults (applied to the synthesized timeline).
    /** Probability each stolen interval is dropped (never delivered). */
    double dropInterruptProb = 0.0;
    /** Probability each surviving interval is re-delivered shortly after. */
    double duplicateInterruptProb = 0.0;
    /** Mean redelivery delay of a duplicated interrupt. */
    TimeNs duplicateDelay = 50 * kUsec;

    // --- Attacker-timer faults.
    /** Clock-rate skew of the attacker's timebase in parts per million. */
    double timerSkewPpm = 0.0;
    /**
     * Per-quantum probability that timer reads step backwards (NTP
     * corrections, unsynchronized TSC). Non-monotonic reads are exactly
     * the fault the engine's binary search must survive.
     */
    double timerBackstepProb = 0.0;
    /** Largest backward step observed. */
    TimeNs timerBackstepMax = 10 * kUsec;
    /** Real-time bucketing of the hash-derived backstep decisions. */
    TimeNs timerBackstepQuantum = kMsec;

    // --- Attacker stalls (the attacker tab frozen mid-measurement).
    /** Expected stalls per second of trace time. */
    double stallsPerSecond = 0.0;
    /** Median stall length (lognormal). */
    TimeNs stallMedian = kMsec;
    /** Lognormal shape of the stall-length distribution. */
    double stallSigma = 0.6;

    // --- Trace truncation (victim navigates away / tab killed).
    /** Probability a recorded trace is cut short. */
    double truncateProb = 0.0;
    /** Smallest fraction of periods a truncated trace keeps. */
    double truncateKeepMin = 0.0;
    /** Largest fraction of periods a truncated trace keeps. */
    double truncateKeepMax = 1.0;

    /** Fault-stream seed, mixed with each trace's identity. */
    std::uint64_t seed = 0;

    /**
     * True when any fault process is active (timeline, timer, stall or
     * truncation faults).
     */
    bool enabled() const;

    /** The all-zeros plan (the default: no faults). */
    static FaultConfig none() { return {}; }
};

/**
 * One trace's materialized fault decisions, derived deterministically
 * from (config.seed, trace_salt).
 */
class FaultPlan
{
  public:
    /**
     * @param config The fault processes to inject.
     * @param trace_salt Per-trace identity (site/run derived), so sibling
     *                   traces under one config see independent faults.
     */
    FaultPlan(const FaultConfig &config, std::uint64_t trace_salt);

    /** True when any fault process is active. */
    bool enabled() const { return config_.enabled(); }

    /**
     * Applies delivery faults and stalls to a synthesized timeline:
     * drops/duplicates stolen intervals, inserts attacker stalls, and
     * re-normalizes. Idempotent for a given plan and input.
     */
    void applyToTimeline(RunTimeline &timeline) const;

    /**
     * Wraps the attacker's timer with the configured skew/backstep
     * faults; returns @p inner unchanged when no timer fault is active.
     */
    std::unique_ptr<timers::TimerModel>
    wrapTimer(std::unique_ptr<timers::TimerModel> inner) const;

    /**
     * The number of periods a recorded trace keeps after truncation
     * faults; returns @p periods unchanged when the trace is spared.
     */
    std::size_t truncatedLength(std::size_t periods) const;

  private:
    FaultConfig config_;
    std::uint64_t timelineSeed_ = 0;
    std::uint64_t timerSeed_ = 0;
    std::uint64_t truncateSeed_ = 0;
};

/**
 * A TimerModel decorator that injects clock faults: a constant rate skew
 * plus hash-derived backward steps bucketed by real-time quantum. The
 * output is a pure function of real time, so replaying a trace with the
 * same seeds reproduces identical reads regardless of how often the
 * engine polls the clock.
 */
class FaultyTimer : public timers::TimerModel
{
  public:
    FaultyTimer(std::unique_ptr<timers::TimerModel> inner,
                const FaultConfig &config, std::uint64_t seed);

    TimeNs observe(TimeNs real) override;
    void reset(std::uint64_t seed) override;
    TimeNs resolution() const override { return inner_->resolution(); }
    std::string name() const override { return inner_->name() + "+faults"; }

  private:
    std::unique_ptr<timers::TimerModel> inner_;
    FaultConfig config_;
    std::uint64_t seed_;
};

} // namespace bigfish::sim

#endif // BF_SIM_FAULTS_HH
