#include "ktrace/attribution.hh"

namespace bigfish::ktrace {

std::vector<AttributedGap>
attributeGaps(const std::vector<Gap> &gaps,
              const std::vector<InterruptRecord> &records)
{
    std::vector<AttributedGap> out;
    out.reserve(gaps.size());
    std::size_t cursor = 0;
    for (const Gap &gap : gaps)
        out.push_back(detail::attributeGap(gap, records, cursor));
    return out;
}

AttributionReport
summarize(const std::vector<AttributedGap> &gaps)
{
    AttributionReport report;
    for (const AttributedGap &g : gaps)
        report.add(g);
    return report;
}

} // namespace bigfish::ktrace
