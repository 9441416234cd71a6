#include "base/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "base/logging.hh"

namespace bigfish {

namespace {

thread_local bool tls_on_worker = false;

} // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads)
{
    // The caller of parallelFor runs bodies too, so threads_ - 1 workers
    // make threads_ threads in all. A 1-thread pool is the serial path:
    // no workers, no queue traffic.
    workers_.reserve(threads_ - 1);
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

bool
ThreadPool::onWorkerThread()
{
    return tls_on_worker;
}

void
ThreadPool::workerLoop()
{
    tls_on_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Serial pool, tiny range, or a nested region on a worker thread:
    // run the exact serial loop inline.
    if (threads_ == 1 || n == 1 || onWorkerThread()) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Static chunking: a few chunks per worker balances uneven work
    // items without dynamic stealing (results never depend on the
    // assignment, only wall-clock does).
    const std::size_t max_chunks =
        static_cast<std::size_t>(threads_) * 4;
    const std::size_t chunks = n < max_chunks ? n : max_chunks;
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;

    struct Region
    {
        std::atomic<std::size_t> remaining;
        std::mutex doneMutex;
        std::condition_variable done;
        std::exception_ptr error;
        std::mutex errorMutex;
    };
    auto region = std::make_shared<Region>();
    region->remaining.store(chunks, std::memory_order_relaxed);

    std::size_t lo = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t len = base + (c < extra ? 1 : 0);
            const std::size_t hi = lo + len;
            tasks_.push([&body, region, lo, hi] {
                try {
                    for (std::size_t i = lo; i < hi; ++i)
                        body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> error_lock(region->errorMutex);
                    if (!region->error)
                        region->error = std::current_exception();
                }
                if (region->remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1) {
                    std::lock_guard<std::mutex> done_lock(region->doneMutex);
                    region->done.notify_all();
                }
            });
            lo = hi;
        }
    }
    wake_.notify_all();

    // The caller lends a hand instead of blocking idle: pop region
    // chunks (or anything else queued) until the region drains.
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (region->remaining.load(std::memory_order_acquire) == 0)
                break;
            if (!tasks_.empty()) {
                task = std::move(tasks_.front());
                tasks_.pop();
            }
        }
        if (task) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(region->doneMutex);
        region->done.wait(lock, [&] {
            return region->remaining.load(std::memory_order_acquire) == 0;
        });
        break;
    }

    if (region->error)
        std::rethrow_exception(region->error);
}

int
defaultThreadCount()
{
    const char *env = std::getenv("BF_THREADS");
    if (env != nullptr) {
        const long parsed = std::atol(env);
        if (parsed >= 1)
            return static_cast<int>(parsed);
        warnOnce("thread-pool/bad-bf-threads",
                 "ignoring BF_THREADS='" + std::string(env) +
                     "' (want a positive integer)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex &
globalPoolMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(defaultThreadCount());
    return *slot;
}

void
setGlobalThreads(int threads)
{
    const int count = threads <= 0 ? defaultThreadCount() : threads;
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (slot && slot->threadCount() == count)
        return;
    slot = std::make_unique<ThreadPool>(count);
}

int
globalThreadCount()
{
    return globalPool().threadCount();
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    globalPool().parallelFor(n, body);
}

} // namespace bigfish
