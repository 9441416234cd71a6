/**
 * @file
 * Timer models (Section 6.1 of the paper).
 *
 * Everything the attacker learns flows through a timer read, so browser
 * timer defenses are modeled as functions from *real* simulated time to
 * *observed* time:
 *
 *  - PreciseTimer    — a native clock (the Python/Rust attackers).
 *  - QuantizedTimer  — floor(T/A)*A       (Tor Browser, A = 100 ms).
 *  - JitteredTimer   — floor(T/A)*A + e, e in {0, A} from a hash
 *                      (Chrome, A = 0.1 ms; Firefox/Safari, A = 1 ms).
 *  - RandomizedTimer — the paper's proposed defense: the observed clock
 *                      advances by random increments (beta * A) at random
 *                      intervals (alpha * A), bounded by a catch-up
 *                      threshold so it never lags real time by more than
 *                      `threshold`.
 *
 * All models are monotone non-decreasing, deterministic functions of real
 * time once their per-trace random state is fixed. Determinism matters:
 * the attacker stepping engine binary-searches observe() to find the
 * iteration on which a measurement period ends.
 */

#ifndef BF_TIMERS_TIMER_HH
#define BF_TIMERS_TIMER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace bigfish::timers {

/**
 * Abstract mapping from real simulated time to attacker-observed time.
 */
class TimerModel
{
  public:
    virtual ~TimerModel() = default;

    /**
     * Observed time at real time @p real. Must be monotone non-decreasing
     * in @p real and deterministic between reset() calls.
     */
    virtual TimeNs observe(TimeNs real) = 0;

    /** Clears per-trace state and reseeds the internal randomness. */
    virtual void reset(std::uint64_t seed) = 0;

    /** Granularity hint (the A of the defense), 1 for a precise timer. */
    virtual TimeNs resolution() const = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;
};

/** A perfect clock: observe(T) == T. */
class PreciseTimer final : public TimerModel
{
  public:
    TimeNs observe(TimeNs real) override { return real; }
    void reset(std::uint64_t) override {}
    TimeNs resolution() const override { return 1; }
    std::string name() const override { return "precise"; }
};

/** Tor-style quantization: floor(T/A)*A. */
class QuantizedTimer final : public TimerModel
{
  public:
    /** @param resolution The quantum A in nanoseconds. */
    explicit QuantizedTimer(TimeNs resolution);

    TimeNs
    observe(TimeNs real) override
    {
        return (real / resolution_) * resolution_;
    }
    void reset(std::uint64_t) override {}
    TimeNs resolution() const override { return resolution_; }
    std::string name() const override { return "quantized"; }

  private:
    TimeNs resolution_;
};

/**
 * Chrome-style clamp-and-jitter: floor(T/A)*A + e with e in {0, A} chosen
 * by a keyed hash of the quantum index, so the output stays monotone and
 * deterministic yet unpredictable to the attacker.
 */
class JitteredTimer final : public TimerModel
{
  public:
    /**
     * @param resolution The quantum A in nanoseconds.
     * @param seed Key for the per-quantum jitter hash.
     */
    JitteredTimer(TimeNs resolution, std::uint64_t seed);

    TimeNs
    observe(TimeNs real) override
    {
        const TimeNs quantum = real / resolution_;
        // e in {0, A}: the paper notes e is computed with a hash rather
        // than drawn at read time so the timer remains monotone and
        // consistent.
        const bool jitter_up =
            (mix64(static_cast<std::uint64_t>(quantum) ^ seed_) & 1) != 0;
        return quantum * resolution_ + (jitter_up ? resolution_ : 0);
    }
    void reset(std::uint64_t seed) override { seed_ = seed; }
    TimeNs resolution() const override { return resolution_; }
    std::string name() const override { return "jittered"; }

  private:
    TimeNs resolution_;
    std::uint64_t seed_;
};

/** Parameters of the randomized-timer defense (Section 6.1). */
struct RandomizedTimerParams
{
    TimeNs resolution = kMsec;      ///< Update quantum A (Table 4: 1 ms).
    int alphaLo = 5;                ///< Lower bound of the alpha draw.
    int alphaHi = 55;               ///< Upper bound of the alpha draw.
    int betaLo = 5;                 ///< Lower bound of the beta draw.
    int betaHi = 55;                ///< Upper bound of the beta draw.
    TimeNs threshold = 100 * kMsec; ///< Maximum lag behind real time.
};

/**
 * The paper's randomized timer. Every quantum A the defense draws two
 * integers alpha and beta. If the observed clock lags real time by less
 * than alpha*A it stays put; if it lags by more it advances by beta*A;
 * and if the lag would exceed `threshold` it catches up to
 * real - beta*A. The result increases monotonically but in increments
 * whose timing and size the attacker cannot invert, destroying the
 * ability to delimit fixed-length measurement periods (Figure 8c).
 */
class RandomizedTimer final : public TimerModel
{
  public:
    RandomizedTimer(RandomizedTimerParams params, std::uint64_t seed);

    TimeNs observe(TimeNs real) override;
    void reset(std::uint64_t seed) override;
    TimeNs resolution() const override { return params_.resolution; }
    std::string name() const override { return "randomized"; }

  private:
    /** Materializes per-quantum values up to and including index. */
    void materialize(std::size_t index);

    RandomizedTimerParams params_;
    Rng rng_;
    std::vector<TimeNs> values_;
};

/** Which TimerModel a TimerSpec should build. */
enum class TimerKind
{
    Precise,
    Quantized,
    Jittered,
    Randomized,
};

/**
 * A value-type description of a timer, so experiment configs can be
 * copied around and instantiated per trace with fresh seeds.
 */
struct TimerSpec
{
    TimerKind kind = TimerKind::Precise;
    TimeNs resolution = 1;
    RandomizedTimerParams randomized = {};

    /** A native high-resolution clock. */
    static TimerSpec precise();
    /** Tor-style quantization with quantum A. */
    static TimerSpec quantized(TimeNs resolution);
    /** Chrome-style jitter with quantum A. */
    static TimerSpec jittered(TimeNs resolution);
    /** The randomized-timer defense. */
    static TimerSpec randomizedDefense(RandomizedTimerParams params = {});

    /** Instantiates the described timer. */
    std::unique_ptr<TimerModel> make(std::uint64_t seed) const;

    /** Name of the timer this spec builds. */
    std::string name() const;
};

} // namespace bigfish::timers

#endif // BF_TIMERS_TIMER_HH
