/**
 * @file
 * Attribution: joining the GapDetector's user-space gaps against the
 * KernelTracer's handler log (Section 5.2).
 *
 * A gap is *attributed* when at least one traceable interrupt record
 * overlaps it. The paper's headline result — over 99% of gaps longer
 * than 100 ns are caused by interrupts — is reproduced by this join;
 * the unattributed residue comes from untraceable SMI-like stalls (and,
 * in the paper, Turbo Boost artifacts).
 *
 * forEachAttributedGap runs detection and the join as one walk over the
 * timeline's stream; attributeGaps is the same join over the vectors
 * GapDetector::detect and KernelTracer::record return, and both apply
 * one per-gap rule (detail::attributeGap).
 *
 * The join also produces Figure 6's per-kind gap-length distributions:
 * each gap is labeled with the kinds of the records inside it, so a gap
 * containing a timer tick plus piggybacked IRQ work contributes its
 * *total* length to both kinds' distributions — which is why the
 * IRQ-work spike lines up with the timer-interrupt spike in the paper.
 */

#ifndef BF_KTRACE_ATTRIBUTION_HH
#define BF_KTRACE_ATTRIBUTION_HH

#include <array>
#include <vector>

#include "ktrace/gap_detector.hh"
#include "ktrace/tracer.hh"

namespace bigfish::ktrace {

/** One gap together with the interrupt kinds found inside it. */
struct AttributedGap
{
    Gap gap;
    /** Per-kind flag: did a record of this kind overlap the gap? */
    std::array<bool, sim::kNumInterruptKinds> kinds{};
    /** True when any traceable *interrupt* record overlaps the gap. */
    bool attributedToInterrupt = false;
    /** True when any traceable record (incl. preemption) overlaps. */
    bool attributedToAny = false;
};

/** Aggregate attribution statistics. */
struct AttributionReport
{
    std::size_t totalGaps = 0;
    std::size_t attributedToInterrupt = 0;
    std::size_t attributedToAny = 0;

    /** Counts one attributed gap. */
    void
    add(const AttributedGap &g)
    {
        ++totalGaps;
        if (g.attributedToInterrupt)
            ++attributedToInterrupt;
        if (g.attributedToAny)
            ++attributedToAny;
    }

    /** Fraction of gaps explained by interrupts (the >99% result). */
    double interruptFraction() const
    {
        return totalGaps == 0 ? 0.0
                              : static_cast<double>(attributedToInterrupt) /
                                    static_cast<double>(totalGaps);
    }

    /** Fraction of gaps explained by any traceable record. */
    double anyFraction() const
    {
        return totalGaps == 0 ? 0.0
                              : static_cast<double>(attributedToAny) /
                                    static_cast<double>(totalGaps);
    }
};

/**
 * Figure 6's per-kind gap-length samples, in ns: a gap containing
 * several kinds adds its total length under each of them.
 */
struct GapLengthsByKind
{
    std::array<std::vector<double>, sim::kNumInterruptKinds> lengths;

    /** Adds @p g's length under every kind found inside it. */
    void
    add(const AttributedGap &g)
    {
        for (std::size_t k = 0; k < lengths.size(); ++k)
            if (g.kinds[k])
                lengths[k].push_back(static_cast<double>(g.gap.length));
    }

    std::vector<double> &
    operator[](sim::InterruptKind kind)
    {
        return lengths[static_cast<std::size_t>(kind)];
    }
};

namespace detail {

inline TimeNs startOf(const InterruptRecord &r) { return r.start; }
inline TimeNs startOf(const sim::StolenInterval &s) { return s.arrival; }
inline bool traced(const InterruptRecord &) { return true; }
inline bool
traced(const sim::StolenInterval &s)
{
    return sim::isTraceable(s.kind);
}

/**
 * The per-gap attribution rule over a time-sorted log: tracer records,
 * or the stolen intervals of the timeline the gaps came from, of which
 * only the traceable ones count. @p cursor carries over from gap to gap
 * (gaps in time order) and never rewinds: it skips entries that end
 * before the gap starts. Every counted entry from there on that starts
 * by the gap's end is marked, unless it ended before the gap started.
 */
template <typename Entry>
AttributedGap
attributeGap(const Gap &gap, const std::vector<Entry> &log,
             std::size_t &cursor)
{
    AttributedGap out;
    out.gap = gap;
    while (cursor < log.size() &&
           (!traced(log[cursor]) || log[cursor].end() < gap.start))
        ++cursor;
    for (std::size_t k = cursor; k < log.size(); ++k) {
        const Entry &e = log[k];
        if (!traced(e))
            continue;
        if (startOf(e) > gap.end())
            break;
        if (e.end() < gap.start)
            continue;
        out.kinds[static_cast<std::size_t>(e.kind)] = true;
        out.attributedToAny = true;
        if (sim::isInterrupt(e.kind))
            out.attributedToInterrupt = true;
    }
    return out;
}

} // namespace detail

/**
 * The one walk: detects each gap of @p timeline and attributes it to
 * the traceable intervals of the same stream, calling
 * `visit(const AttributedGap &)` once per gap in time order. Gap for
 * gap it equals `attributeGaps(GapDetector().detect(timeline),
 * KernelTracer().record(timeline))`, without materializing the records,
 * the gaps or the attributed gaps.
 */
template <typename Visit>
void
forEachAttributedGap(const sim::RunTimeline &timeline, Visit &&visit)
{
    const GapDetectorConfig config;
    std::size_t cursor = 0;
    timeline.forEachObservedGap(
        config.pollCostNs, config.threshold,
        [&](TimeNs start, TimeNs length) {
            visit(detail::attributeGap(Gap{start, length}, timeline.stolen,
                                       cursor));
        });
}

/**
 * Joins gaps with tracer records (both sorted by time).
 *
 * @param gaps GapDetector output.
 * @param records KernelTracer output.
 * @return One AttributedGap per input gap, in order.
 */
std::vector<AttributedGap>
attributeGaps(const std::vector<Gap> &gaps,
              const std::vector<InterruptRecord> &records);

/** Summarizes an attribution join. */
AttributionReport summarize(const std::vector<AttributedGap> &gaps);

} // namespace bigfish::ktrace

#endif // BF_KTRACE_ATTRIBUTION_HH
