#include "web/browser.hh"

#include <algorithm>

namespace bigfish::web {

BrowserProfile
BrowserProfile::chrome()
{
    BrowserProfile b;
    b.name = "chrome";
    b.timer = timers::TimerSpec::jittered(100 * kUsec);
    b.runtimeNoiseSigma = 0.005;
    b.stallRate = 1.2;
    return b;
}

BrowserProfile
BrowserProfile::firefox()
{
    BrowserProfile b;
    b.name = "firefox";
    b.timer = timers::TimerSpec::jittered(kMsec);
    b.runtimeNoiseSigma = 0.006;
    b.stallRate = 1.5;
    return b;
}

BrowserProfile
BrowserProfile::safari()
{
    BrowserProfile b;
    b.name = "safari";
    b.timer = timers::TimerSpec::quantized(kMsec);
    b.runtimeNoiseSigma = 0.005;
    b.stallRate = 2.0;
    return b;
}

BrowserProfile
BrowserProfile::torBrowser()
{
    BrowserProfile b;
    b.name = "tor";
    b.timer = timers::TimerSpec::quantized(100 * kMsec);
    b.traceDuration = 50 * kSec;
    b.loadTimeScale = 3.0;
    b.loadVariability = 2.5;
    b.runtimeNoiseSigma = 0.020;
    b.stallRate = 4.0;
    return b;
}

BrowserProfile
BrowserProfile::nativePython()
{
    BrowserProfile b;
    b.name = "python";
    b.timer = timers::TimerSpec::precise();
    b.runtimeNoiseSigma = 0.004;
    b.stallRate = 0.2;
    return b;
}

BrowserProfile
BrowserProfile::nativeRust()
{
    BrowserProfile b;
    b.name = "rust";
    b.timer = timers::TimerSpec::precise();
    b.runtimeNoiseSigma = 0.001;
    b.stallRate = 0.0;
    return b;
}

void
applyBrowserRuntime(sim::RunTimeline &timeline,
                    const BrowserProfile &browser, Rng &rng)
{
    for (double &factor : timeline.iterCostFactor)
        factor *= rng.lognormal(1.0, browser.runtimeNoiseSigma);

    if (browser.stallRate > 0.0) {
        const double duration_s = static_cast<double>(timeline.duration) /
                                  static_cast<double>(kSec);
        const int n = rng.poisson(browser.stallRate * duration_s);
        for (int i = 0; i < n; ++i) {
            sim::StolenInterval stall;
            stall.arrival = static_cast<TimeNs>(
                rng.uniform() * static_cast<double>(timeline.duration));
            stall.kind = sim::InterruptKind::Preemption;
            stall.duration = static_cast<TimeNs>(
                rng.lognormal(static_cast<double>(browser.stallMedian),
                              0.6));
            timeline.stolen.push_back(stall);
        }
        sim::normalizeTimeline(timeline.stolen, timeline.duration);
    }
}

} // namespace bigfish::web
