/**
 * @file
 * ExecutionEngine: instruction-throughput-accurate replay of an attacker
 * loop (Figure 2) against a RunTimeline.
 *
 * The engine advances the attacker in closed form between events instead
 * of simulating 27,000 loop iterations per 5 ms period one by one: within
 * a segment where the iteration cost is constant and no interrupt
 * arrives, the number of iterations that fit is computed directly, and
 * the iteration on which the (possibly fuzzed) timer first crosses the
 * period boundary is found by binary search over the monotone observe()
 * function. Interrupt arrivals are charged mid-iteration exactly as a
 * real core would experience them: the iteration in flight completes
 * after the handler returns.
 *
 * This keeps full-trace collection (15-50 s of simulated time, millions
 * of iterations) at microseconds of host time while preserving the exact
 * do { counter++ } while (time() - t_begin < P) semantics, including
 * iteration-granular timer polling.
 */

#ifndef BF_SIM_ENGINE_HH
#define BF_SIM_ENGINE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/run_timeline.hh"
#include "timers/timer.hh"

namespace bigfish::sim {

/**
 * std::llround without the libm call, for |x| < 2^63: truncate toward
 * zero, then step one away from zero when the dropped fraction is at
 * least one half. x - trunc(x) is exact for every such double, so
 * halfway cases round away from zero as llround's do,
 * 0.49999999999999994 rounds to 0 (floor(x + 0.5) would give 1), and
 * values at or past 2^52, already integers, pass through unchanged.
 */
inline std::int64_t
roundNs(double x)
{
    const auto whole = static_cast<std::int64_t>(x);
    const double frac = x - static_cast<double>(whole);
    return whole + static_cast<std::int64_t>(frac >= 0.5) -
           static_cast<std::int64_t>(frac <= -0.5);
}

/** Result of one measurement period executed by the engine. */
struct PeriodResult
{
    std::int64_t iterations = 0; ///< Counter value stored into the trace.
    TimeNs wallTime = 0;         ///< Real time the period actually spanned.
    TimeNs startReal = 0;        ///< Real time at which the period began.
};

/**
 * Replays one attacker loop over one RunTimeline.
 *
 * The per-iteration CPU cost is supplied as a piecewise-constant vector
 * aligned with the timeline's activity steps, so both the loop-counting
 * attacker (constant base cost scaled by DVFS) and the sweep-counting
 * attacker (cost dominated by cache misses, i.e. victim occupancy) use
 * the same engine.
 */
class ExecutionEngine
{
  public:
    /**
     * @param timeline The schedule to replay against (must outlive the
     *                 engine).
     * @param iterCostNs Per-activity-step iteration cost in nanoseconds;
     *                   must have one entry per timeline step.
     */
    ExecutionEngine(const RunTimeline &timeline,
                    std::vector<double> iterCostNs);

    /**
     * Runs one measurement period with do-while semantics: at least one
     * iteration executes, and the period ends on the first iteration
     * boundary where observed time has advanced by at least @p period.
     *
     * @param timer The attacker's clock.
     * @param period The target period length P in observed time.
     * @param result Filled with the counter value and wall time.
     * @return false when the run has ended (no period was executed).
     */
    bool runPeriod(timers::TimerModel &timer, TimeNs period,
                   PeriodResult &result);

    /** Current real time. */
    TimeNs now() const { return static_cast<TimeNs>(now_); }

    /** True when the run's duration has been consumed. */
    bool atEnd() const { return now_ >= durationF_; }

    /** Rewinds to the start of the run. */
    void restart();

  private:
    /**
     * Executes exactly one iteration from real time @p t, charging any
     * interrupts that arrive before it completes.
     */
    double stepOneIteration(double t, double cost);

    /** Skips past stolen intervals that have already begun at @p t. */
    double skipStolen(double t);

    /**
     * Points the step cursor at RunTimeline::stepAt(@p t). Replay time
     * only grows, so the cursor re-divides only when @p t leaves the
     * cached step's span.
     */
    void seekStep(TimeNs t);

    const RunTimeline &timeline_;
    std::vector<double> iterCostNs_;
    double now_ = 0.0;
    double durationF_ = 0.0;
    std::size_t stolenIdx_ = 0;
    /** The step cursor: stepAt(t) for t in [stepBegin_, stepLimit_). */
    std::size_t step_ = 0;
    TimeNs stepBegin_ = 0;
    TimeNs stepLimit_ = 0;
    /** timeline_.stepEnd() of the cursor's step, as a double. */
    double stepEndF_ = 0.0;
};

} // namespace bigfish::sim

#endif // BF_SIM_ENGINE_HH
