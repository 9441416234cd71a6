/**
 * @file
 * RetryPolicy: deterministic seeded-jitter backoff for transient errors.
 *
 * The suite supervisor (src/core/supervisor.hh) retries experiments
 * that fail with transient error classes. Retry *jitter* normally comes
 * from wall-clock entropy, which bigfish-lint bans: two runs of the
 * same suite must make the same retry decisions and sleep the same
 * (reported) delays. RetryPolicy therefore derives its jitter from a
 * seed via the same splitmix64 finalizer (base/rng.hh) that drives the
 * simulator — `delaySeconds(attempt, salt)` is a pure function.
 *
 * What counts as transient: IoError (disk hiccups, torn writes) and
 * Exhausted (a degraded collection round that may succeed on retry
 * under fault injection). InvalidArgument/ParseError are permanent —
 * retrying a usage error burns the attempt budget for nothing.
 */

#ifndef BF_BASE_RETRY_HH
#define BF_BASE_RETRY_HH

#include <cstdint>
#include <string>

#include "base/status.hh"

namespace bigfish {

/** Deterministic retry schedule: attempts, backoff, seeded jitter. */
struct RetryPolicy
{
    /** Total attempts including the first (1 = never retry). */
    int maxAttempts = 1;
    /** Delay before the first retry, in seconds. */
    double baseDelaySeconds = 0.25;
    /** Multiplier applied per additional retry (exponential backoff). */
    double backoffMultiplier = 2.0;
    /** Upper clamp on any single delay, in seconds. */
    double maxDelaySeconds = 8.0;
    /** Jitter half-width as a fraction of the delay (0 = none). */
    double jitterFraction = 0.25;
    /** Seed for the jitter stream; mixed with the per-call salt. */
    std::uint64_t seed = 0;

    /** A policy that never retries. */
    [[nodiscard]] static RetryPolicy none() { return RetryPolicy{}; }

    /**
     * True when @p error is transient and @p attempt (1-based, the
     * attempt that just failed) leaves budget for another try.
     */
    [[nodiscard]] bool shouldRetry(const Status &error, int attempt) const;

    /**
     * The backoff delay after failed attempt @p attempt (1-based), in
     * seconds. @p salt decorrelates concurrent retry streams (e.g. a
     * hash of the experiment name). Pure: same policy, attempt and
     * salt always give the same delay.
     */
    [[nodiscard]] double delaySeconds(int attempt, std::uint64_t salt) const;
};

/** FNV-1a hash of @p text; the conventional salt for delaySeconds(). */
[[nodiscard]] std::uint64_t retrySalt(const std::string &text);

} // namespace bigfish

#endif // BF_BASE_RETRY_HH
