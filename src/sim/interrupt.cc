#include "sim/interrupt.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace bigfish::sim {

std::string
interruptKindName(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::TimerTick:
        return "timer_tick";
      case InterruptKind::NetworkRx:
        return "net_rx_irq";
      case InterruptKind::Graphics:
        return "graphics_irq";
      case InterruptKind::Disk:
        return "disk_irq";
      case InterruptKind::Usb:
        return "usb_irq";
      case InterruptKind::SoftirqNetRx:
        return "softirq:net_rx";
      case InterruptKind::SoftirqTimer:
        return "softirq:timer";
      case InterruptKind::IrqWork:
        return "irq_work";
      case InterruptKind::ReschedIpi:
        return "resched_ipi";
      case InterruptKind::TlbShootdown:
        return "tlb_shootdown";
      case InterruptKind::SpuriousNoise:
        return "spurious_noise";
      case InterruptKind::Preemption:
        return "preemption";
      case InterruptKind::UntraceableStall:
        return "untraceable_stall";
      case InterruptKind::NumKinds:
        break;
    }
    return "unknown";
}

bool
isMovable(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::NetworkRx:
      case InterruptKind::Graphics:
      case InterruptKind::Disk:
      case InterruptKind::Usb:
        return true;
      default:
        return false;
    }
}

bool
isInterrupt(InterruptKind kind)
{
    return kind != InterruptKind::Preemption &&
           kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

bool
isTraceable(InterruptKind kind)
{
    return kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

HandlerCostModel::HandlerCostModel()
{
    // Medians chosen so the *total* gap (median + 1.5us context switch)
    // reproduces the characteristic per-kind distributions of Figure 6:
    // every gap exceeds 1.5us; timer ticks cluster near 2-4us with a
    // second mode at ~5.5us when IRQ work piggybacks; network RX spreads
    // wider; rescheduling IPIs are the cheapest.
    auto set = [&](InterruptKind k, TimeNs median, double sigma) {
        setParams(k, {median, sigma});
    };
    set(InterruptKind::TimerTick, 2100, 0.35);
    set(InterruptKind::NetworkRx, 3400, 0.50);
    set(InterruptKind::Graphics, 2900, 0.45);
    set(InterruptKind::Disk, 2600, 0.40);
    set(InterruptKind::Usb, 2000, 0.35);
    set(InterruptKind::SoftirqNetRx, 2500, 0.55);
    set(InterruptKind::SoftirqTimer, 1800, 0.40);
    set(InterruptKind::IrqWork, 4000, 0.20);
    set(InterruptKind::ReschedIpi, 1400, 0.30);
    set(InterruptKind::TlbShootdown, 2200, 0.35);
    set(InterruptKind::SpuriousNoise, 3000, 0.50);
    // Preemption "handler cost" is the stolen timeslice; the synthesizer
    // overrides its duration directly, so this entry is only a fallback.
    set(InterruptKind::Preemption, 1000 * 1000, 0.50);
    set(InterruptKind::UntraceableStall, 800, 0.60);
}

void
HandlerCostModel::setParams(InterruptKind kind, HandlerCostParams params)
{
    table_[static_cast<int>(kind)] = params;
    logMedian_[static_cast<int>(kind)] =
        std::log(static_cast<double>(params.median));
}

HandlerCostParams
HandlerCostModel::params(InterruptKind kind) const
{
    return table_[static_cast<int>(kind)];
}

TimeNs
HandlerCostModel::sample(InterruptKind kind, Rng &rng, bool vmIsolated,
                         double workScale) const
{
    const HandlerCostParams &p = table_[static_cast<int>(kind)];
    double body =
        rng.lognormalFromLogMedian(logMedian_[static_cast<int>(kind)],
                                   p.sigma);
    body *= std::max(workScale, 0.0);
    double total = body;
    if (kind != InterruptKind::UntraceableStall)
        total += static_cast<double>(contextSwitchNs);
    if (vmIsolated && isInterrupt(kind)) {
        // Host handles the interrupt, exits to the guest, and the guest
        // kernel processes its virtual interrupt: the stolen time grows.
        total = total * vmAmplification + static_cast<double>(vmExitNs);
    }
    return static_cast<TimeNs>(std::max(total, 1.0));
}

namespace {

constexpr auto byArrival = [](const StolenInterval &a,
                              const StolenInterval &b) {
    return a.arrival < b.arrival;
};

/**
 * Sorts intervals by arrival with a bucket sort: arrivals are
 * near-uniform over the run (the synthesizer emits them clustered by
 * activity step), so scattering into ~size/16 arrival-range buckets and
 * insertion-sorting each bucket is O(n) where a comparison sort was a
 * quarter of trace-collection time at paper scale. Bucket assignment is
 * pure arithmetic on the arrival, so the result is deterministic and
 * independent of thread count.
 */
void
bucketSortByArrival(std::vector<StolenInterval> &stolen, PerfCounters *perf)
{
    TimeNs lo = stolen[0].arrival;
    TimeNs hi = lo;
    for (const StolenInterval &s : stolen) {
        lo = std::min(lo, s.arrival);
        hi = std::max(hi, s.arrival);
    }
    const std::size_t buckets =
        std::max<std::size_t>(stolen.size() / 16, 1);
    const double scale = static_cast<double>(buckets) /
                         (static_cast<double>(hi - lo) + 1.0);
    const auto bucket_of = [&](const StolenInterval &s) {
        return std::min<std::size_t>(
            static_cast<std::size_t>(
                static_cast<double>(s.arrival - lo) * scale),
            buckets - 1);
    };
    std::vector<std::size_t> offsets(buckets + 1, 0);
    for (const StolenInterval &s : stolen)
        ++offsets[bucket_of(s) + 1];
    for (std::size_t b = 1; b <= buckets; ++b)
        offsets[b] += offsets[b - 1];
    std::vector<StolenInterval> sorted(stolen.size());
    {
        std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
        for (const StolenInterval &s : stolen)
            sorted[cursor[bucket_of(s)]++] = s;
    }
    // Buckets average ~16 elements: insertion sort handles those, while
    // softirq-storm clusters that land many intervals in one bucket fall
    // back to std::sort. The fallback is not stable, and that is safe:
    // tied intervals serialize into one back-to-back chain, which the
    // attacker is charged as one span (the tie-policy note on
    // normalizeTimeline). It stays for speed: stable orders measured
    // 4-19 % more Table 1 CPU.
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t len = offsets[b + 1] - offsets[b];
        if (len < 2)
            continue;
        if (len > 48) {
            std::sort(sorted.begin() +
                          static_cast<std::ptrdiff_t>(offsets[b]),
                      sorted.begin() +
                          static_cast<std::ptrdiff_t>(offsets[b + 1]),
                      byArrival);
            continue;
        }
        for (std::size_t i = offsets[b] + 1; i < offsets[b + 1]; ++i) {
            StolenInterval v = sorted[i];
            std::size_t j = i;
            while (j > offsets[b] && v.arrival < sorted[j - 1].arrival) {
                sorted[j] = sorted[j - 1];
                --j;
            }
            sorted[j] = v;
        }
    }
    stolen = std::move(sorted);
    if (perf) {
        perf->bytesSorted += static_cast<long long>(
            stolen.size() * sizeof(StolenInterval));
    }
}

/**
 * Merges an already-sorted prefix with a sorted tail in place, working
 * backward from the end. Output is element-for-element identical to
 * std::inplace_merge: on ties (equal arrivals) the prefix element
 * precedes the tail element, because a tail element only overtakes a
 * prefix element when the prefix arrival is *strictly* greater. Unlike
 * std::inplace_merge, which may copy the whole range into a temporary,
 * only the short tail is copied.
 */
void
mergeSortedTail(std::vector<StolenInterval> &stolen,
                std::size_t sorted_prefix, PerfCounters *perf)
{
    const std::vector<StolenInterval> tailBuf(
        stolen.begin() + static_cast<std::ptrdiff_t>(sorted_prefix),
        stolen.end());
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(sorted_prefix) - 1;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(tailBuf.size()) - 1;
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(stolen.size()) - 1;
    while (j >= 0) {
        if (i >= 0 && stolen[static_cast<std::size_t>(i)].arrival >
                          tailBuf[static_cast<std::size_t>(j)].arrival) {
            stolen[static_cast<std::size_t>(k--)] =
                stolen[static_cast<std::size_t>(i--)];
        } else {
            stolen[static_cast<std::size_t>(k--)] =
                tailBuf[static_cast<std::size_t>(j--)];
        }
    }
    if (perf) {
        perf->bytesSorted += static_cast<long long>(
            stolen.size() * sizeof(StolenInterval));
    }
}

} // namespace

void
normalizeTimeline(std::vector<StolenInterval> &stolen, TimeNs duration,
                  PerfCounters *perf)
{
    if (stolen.size() > 1) {
        // Re-normalization after appending a few intervals to an
        // already-normalized stream (browser stalls, injected faults) is
        // common: detect the sorted prefix and merge the short tail
        // instead of re-sorting everything.
        std::size_t sorted_prefix = 1;
        while (sorted_prefix < stolen.size() &&
               stolen[sorted_prefix].arrival >=
                   stolen[sorted_prefix - 1].arrival)
            ++sorted_prefix;
        const std::size_t tail = stolen.size() - sorted_prefix;
        if (tail == 0) {
            // Already sorted: only the clamp pass below is needed.
        } else if (tail <= 256) {
            const auto mid =
                stolen.begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
            std::sort(mid, stolen.end(), byArrival);
            if (perf) {
                perf->bytesSorted += static_cast<long long>(
                    tail * sizeof(StolenInterval));
            }
            mergeSortedTail(stolen, sorted_prefix, perf);
        } else {
            bucketSortByArrival(stolen, perf);
        }
    }
    TimeNs busy_until = 0;
    for (auto &interval : stolen) {
        if (interval.arrival < busy_until)
            interval.arrival = busy_until;
        busy_until = interval.end();
    }
    // Serialization may push the last handlers past the end of the run:
    // drop those that start after it and cut the one that straddles it.
    while (!stolen.empty() && stolen.back().arrival >= duration)
        stolen.pop_back();
    if (!stolen.empty() && stolen.back().end() > duration)
        stolen.back().duration = duration - stolen.back().arrival;
}

} // namespace bigfish::sim
