/**
 * @file
 * Deterministic parallel execution: a small worker pool plus
 * parallelFor/parallelMap helpers used by collection, featurization and
 * per-fold training. Fold tasks are the only level of parallelism in
 * training: the ML kernels themselves always run on their caller.
 *
 * Design rules that make parallel runs bit-identical to serial ones:
 *
 *  - Work items are *independent* and write only to pre-sized output
 *    slots; the scheduler controls timing, never results. parallelFor
 *    hands out static chunks of the index range, so the arithmetic each
 *    index performs (including floating-point accumulation order) is
 *    the same at any thread count.
 *  - With one thread (or inside a worker, to avoid nested-pool
 *    deadlocks) the helpers degenerate to the exact serial loop.
 *  - Exceptions thrown by a body are captured, the pool drains the
 *    remaining chunks, and the first exception is rethrown on the
 *    calling thread, so a failed parallel region cannot wedge or leak
 *    work into the next one.
 *
 * Thread-count policy: the global pool defaults to the BF_THREADS
 * environment variable when set, else the hardware concurrency;
 * setGlobalThreads() (the --threads=N bench flag) overrides both. A
 * count of N means N threads run bodies: N - 1 workers plus the thread
 * that calls parallelFor.
 */

#ifndef BF_BASE_THREAD_POOL_HH
#define BF_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace bigfish {

/** A fixed-size worker pool with a shared FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads Threads that run parallelFor bodies, counting the
     *                caller; clamped to >= 1. The pool spawns threads - 1
     *                workers, so a pool of 1 runs everything inline on
     *                the calling thread (the exact serial path).
     */
    explicit ThreadPool(int threads);

    /** Joins all workers (any queued work is completed first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The number of threads that execute parallelFor bodies: the
     *  workers plus the calling thread. */
    int threadCount() const { return threads_; }

    /**
     * Runs body(i) for every i in [0, n), statically chunked across the
     * pool. Bodies must only write to disjoint, pre-sized slots; under
     * that contract results are identical at any thread count. The
     * first exception a body throws is rethrown here after every chunk
     * has drained.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Maps fn over [0, n) into a pre-sized result vector (slot i holds
     * fn(i)). Works for non-default-constructible result types.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using T = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<std::optional<T>> slots(n);
        parallelFor(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> out;
        out.reserve(n);
        for (auto &slot : slots)
            out.push_back(std::move(*slot));
        return out;
    }

  private:
    void workerLoop();

    /** True on a pool worker thread (nested regions then run inline). */
    static bool onWorkerThread();

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::queue<std::function<void()>> tasks_;
    bool stopping_ = false;
};

/**
 * Thread count the global pool uses when not overridden: BF_THREADS
 * when set to a positive integer, else std::thread::hardware_concurrency.
 */
int defaultThreadCount();

/**
 * The process-wide pool used by the collection/featurization/training
 * hot paths. Created lazily with defaultThreadCount() threads.
 */
ThreadPool &globalPool();

/**
 * Replaces the global pool with one of @p threads threads (<= 0 resets
 * to defaultThreadCount()). Call only between parallel regions — e.g.
 * from flag parsing at startup or test setup.
 */
void setGlobalThreads(int threads);

/** The global pool's thread count. */
int globalThreadCount();

/** globalPool().parallelFor convenience wrapper. */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body);

/** globalPool().parallelMap convenience wrapper. */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn)
{
    return globalPool().parallelMap(n, std::forward<Fn>(fn));
}

} // namespace bigfish

#endif // BF_BASE_THREAD_POOL_HH
