#include "sim/engine.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace bigfish::sim {

ExecutionEngine::ExecutionEngine(const RunTimeline &timeline,
                                 std::vector<double> iterCostNs)
    : timeline_(timeline), iterCostNs_(std::move(iterCostNs)),
      durationF_(static_cast<double>(timeline.duration))
{
    panicIf(iterCostNs_.size() != timeline.iterCostFactor.size(),
            "ExecutionEngine iteration-cost vector must have one entry per "
            "timeline step");
    for (double c : iterCostNs_)
        panicIf(c <= 0.0, "iteration cost must be positive");
}

bool
ExecutionEngine::runPeriod(timers::TimerModel &timer, TimeNs period,
                           PeriodResult &result)
{
    if (atEnd())
        return false;
    now_ = skipStolen(now_);
    if (atEnd())
        return false;

    const TimeNs t_begin_real = roundNs(now_);
    const TimeNs t_begin_obs = timer.observe(t_begin_real);
    const TimeNs target = t_begin_obs + period;
    std::int64_t counter = 0;

    const auto &stolen = timeline_.stolen;
    const double infinity = std::numeric_limits<double>::infinity();

    while (true) {
        seekStep(static_cast<TimeNs>(now_));
        const double cost = iterCostNs_[step_];
        const double next_arrival =
            stolenIdx_ < stolen.size()
                ? static_cast<double>(stolen[stolenIdx_].arrival)
                : infinity;
        const double seg_end =
            std::min({next_arrival, stepEndF_, durationF_});

        if (counter == 0) {
            // do-while semantics: the first iteration always executes.
            now_ = stepOneIteration(now_, cost);
            ++counter;
            if (timer.observe(roundNs(now_)) >= target ||
                now_ >= durationF_) {
                break;
            }
            continue;
        }

        const std::int64_t n_max =
            seg_end > now_
                ? static_cast<std::int64_t>((seg_end - now_) / cost)
                : 0;
        if (n_max > 0) {
            const TimeNs t_bulk =
                roundNs(now_ + static_cast<double>(n_max) * cost);
            if (timer.observe(t_bulk) < target) {
                // The whole uninterrupted stretch fits inside the
                // period.
                now_ += static_cast<double>(n_max) * cost;
                counter += n_max;
            } else {
                // The period ends inside this stretch: binary search
                // the first iteration boundary where the (monotone)
                // observed clock crosses the target.
                std::int64_t lo = 1, hi = n_max;
                while (lo < hi) {
                    const std::int64_t mid = lo + (hi - lo) / 2;
                    const TimeNs t_mid =
                        roundNs(now_ + static_cast<double>(mid) * cost);
                    if (timer.observe(t_mid) >= target)
                        hi = mid;
                    else
                        lo = mid + 1;
                }
                now_ += static_cast<double>(lo) * cost;
                counter += lo;
                break;
            }
        }
        if (now_ >= durationF_)
            break;

        // One iteration straddling an interrupt arrival or a step
        // boundary; charged at the current step's cost (boundaries
        // are coarse relative to a single iteration).
        now_ = stepOneIteration(now_, cost);
        ++counter;
        if (timer.observe(roundNs(now_)) >= target ||
            now_ >= durationF_) {
            break;
        }
    }

    result.iterations = counter;
    result.startReal = t_begin_real;
    result.wallTime = roundNs(now_) - t_begin_real;
    return true;
}

void
ExecutionEngine::seekStep(TimeNs t)
{
    if (t >= stepBegin_ && t < stepLimit_)
        return;
    step_ = timeline_.stepAt(t);
    const TimeNs interval = timeline_.activityInterval;
    const bool last = step_ + 1 >= timeline_.iterCostFactor.size();
    // stepAt() clamps to 0 below zero and to the last step beyond it.
    stepBegin_ = step_ == 0 ? std::numeric_limits<TimeNs>::min()
                            : static_cast<TimeNs>(step_) * interval;
    stepLimit_ = last ? std::numeric_limits<TimeNs>::max()
                      : (static_cast<TimeNs>(step_) + 1) * interval;
    stepEndF_ = static_cast<double>(timeline_.stepEnd(t));
}

double
ExecutionEngine::skipStolen(double t)
{
    const auto &stolen = timeline_.stolen;
    while (stolenIdx_ < stolen.size() &&
           static_cast<double>(stolen[stolenIdx_].arrival) <= t) {
        t = std::max(t, static_cast<double>(stolen[stolenIdx_].end()));
        ++stolenIdx_;
    }
    return t;
}

double
ExecutionEngine::stepOneIteration(double t, double cost)
{
    const auto &stolen = timeline_.stolen;
    double rem = cost;
    while (stolenIdx_ < stolen.size()) {
        const StolenInterval &s = stolen[stolenIdx_];
        const double arrival = static_cast<double>(s.arrival);
        if (arrival > t + rem)
            break; // The iteration completes before the next interrupt.
        // Run until the interrupt fires, then resume after its handler.
        rem -= std::max(0.0, arrival - t);
        t = static_cast<double>(s.end());
        ++stolenIdx_;
    }
    return t + rem;
}

} // namespace bigfish::sim
