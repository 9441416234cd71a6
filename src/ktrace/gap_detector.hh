/**
 * @file
 * GapDetector: the user-space half of the Section 5.2 methodology.
 *
 * The paper's Rust attacker spins reading CLOCK_MONOTONIC through the
 * vDSO (~tens of ns per read) and records every jump in consecutive
 * readings above a threshold. We replay the same loop against a
 * RunTimeline: while the core is free the readings advance by the poll
 * cost; when anything steals the core, the next reading jumps by the
 * stolen time. Stolen intervals separated by less than one poll are
 * observed as a single merged gap — the reason softirq/IRQ-work gap
 * distributions include the timer tick they piggyback on (Figure 6).
 * The loop is RunTimeline::forEachObservedGap, which the gap-trace
 * attacker (attack::collectGapTrace) runs too.
 */

#ifndef BF_KTRACE_GAP_DETECTOR_HH
#define BF_KTRACE_GAP_DETECTOR_HH

#include <vector>

#include "base/types.hh"
#include "sim/run_timeline.hh"

namespace bigfish::ktrace {

/** One observed execution gap. */
struct Gap
{
    TimeNs start = 0;  ///< Monotonic reading before the jump.
    TimeNs length = 0; ///< Size of the jump (includes one poll cost).

    TimeNs end() const { return start + length; }
};

/** Configuration of the spinning monotonic-clock reader. */
struct GapDetectorConfig
{
    /** Cost of one clock read (vDSO CLOCK_MONOTONIC, ~30 ns). */
    TimeNs pollCostNs = 30;
    /** Minimum observed jump recorded as a gap (paper studies >100 ns). */
    TimeNs threshold = 100;
};

/** Detects execution gaps the way the paper's Rust attacker does. */
class GapDetector
{
  public:
    explicit GapDetector(GapDetectorConfig config = {});

    /** Replays the polling loop over @p timeline and returns all gaps. */
    std::vector<Gap> detect(const sim::RunTimeline &timeline) const;

    const GapDetectorConfig &config() const { return config_; }

  private:
    GapDetectorConfig config_;
};

} // namespace bigfish::ktrace

#endif // BF_KTRACE_GAP_DETECTOR_HH
