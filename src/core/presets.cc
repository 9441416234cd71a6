#include "core/presets.hh"

#include "base/logging.hh"

namespace bigfish::core::presets {

namespace {

sim::MachineConfig
machineFor(const std::string &os)
{
    if (os == "linux")
        return sim::MachineConfig::linuxDesktop();
    if (os == "windows")
        return sim::MachineConfig::windowsWorkstation();
    if (os == "macos")
        return sim::MachineConfig::macbook();
    fatal("unknown os preset: " + os + " (linux|windows|macos)");
}

web::BrowserProfile
browserFor(const std::string &browser)
{
    if (browser == "chrome")
        return web::BrowserProfile::chrome();
    if (browser == "firefox")
        return web::BrowserProfile::firefox();
    if (browser == "safari")
        return web::BrowserProfile::safari();
    if (browser == "tor")
        return web::BrowserProfile::torBrowser();
    fatal("unknown browser preset: " + browser +
          " (chrome|firefox|safari|tor)");
}

} // namespace

CollectionConfig
table1Row(const std::string &browser, const std::string &os)
{
    // The paper's matrix: Chrome and Firefox on all three OSes; Safari
    // only on macOS; Tor Browser only on Linux.
    fatalIf(browser == "safari" && os != "macos",
            "Table 1 evaluates Safari only on macOS");
    fatalIf(browser == "tor" && os != "linux",
            "Table 1 evaluates Tor Browser only on Linux");
    CollectionConfig config;
    config.machine = machineFor(os);
    config.browser = browserFor(browser);
    return config;
}

std::vector<NamedConfig>
table1Rows()
{
    std::vector<NamedConfig> rows;
    const std::pair<const char *, const char *> matrix[] = {
        {"chrome", "linux"},   {"chrome", "windows"}, {"chrome", "macos"},
        {"firefox", "linux"},  {"firefox", "windows"},
        {"firefox", "macos"},  {"safari", "macos"},   {"tor", "linux"},
    };
    int index = 1;
    for (const auto &[browser, os] : matrix) {
        NamedConfig row;
        row.name = std::string(browser) + "/" + os;
        row.paperReference = "Table 1, row " + std::to_string(index++);
        row.config = table1Row(browser, os);
        rows.push_back(std::move(row));
    }
    return rows;
}

CollectionConfig
table2Condition(const std::string &noise)
{
    CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::chrome();
    if (noise == "none") {
        // Baseline.
    } else if (noise == "cache-sweep") {
        config.cacheSweepNoise = true;
    } else if (noise == "interrupt") {
        config.spuriousInterruptNoise = true;
    } else if (noise == "background") {
        config.backgroundApps = true;
    } else {
        fatal("unknown noise preset: " + noise +
              " (none|cache-sweep|interrupt|background)");
    }
    return config;
}

CollectionConfig
table3Isolation(int level)
{
    fatalIf(level < 0 || level > 4, "Table 3 levels are 0..4");
    CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::nativePython();
    if (level >= 1)
        config.machine.frequencyScaling = false;
    if (level >= 2)
        config.machine.pinnedCores = true;
    if (level >= 3)
        config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    if (level >= 4)
        config.machine.vmIsolation = true;
    return config;
}

CollectionConfig
table4Timer(const std::string &timer, int period_ms)
{
    fatalIf(period_ms <= 0, "period must be positive");
    CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::nativePython();
    config.period = static_cast<TimeNs>(period_ms) * kMsec;
    if (timer == "jittered") {
        config.timerOverride = timers::TimerSpec::jittered(100 * kUsec);
    } else if (timer == "quantized") {
        config.timerOverride = timers::TimerSpec::quantized(100 * kMsec);
    } else if (timer == "randomized") {
        config.timerOverride = timers::TimerSpec::randomizedDefense();
    } else {
        fatal("unknown timer preset: " + timer +
              " (jittered|quantized|randomized)");
    }
    return config;
}

} // namespace bigfish::core::presets
