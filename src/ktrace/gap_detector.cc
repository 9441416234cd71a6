#include "ktrace/gap_detector.hh"

#include "base/logging.hh"

namespace bigfish::ktrace {

GapDetector::GapDetector(GapDetectorConfig config) : config_(config)
{
    fatalIf(config_.pollCostNs <= 0, "poll cost must be positive");
}

std::vector<Gap>
GapDetector::detect(const sim::RunTimeline &timeline) const
{
    std::vector<Gap> gaps;
    timeline.forEachObservedGap(
        config_.pollCostNs, config_.threshold,
        [&](TimeNs start, TimeNs length) { gaps.push_back({start, length}); });
    return gaps;
}

} // namespace bigfish::ktrace
