/**
 * @file
 * Minimal persistent worker pool for sharded Monte-Carlo decoding.
 *
 * Workers are spawned once and reused across parallelFor() calls, so a
 * batch loop pays no thread-creation cost in steady state. Tasks are
 * pulled from a shared atomic counter (dynamic load balancing); every
 * callback receives the executing worker's index so callers can keep
 * per-worker scratch state without locking. The calling thread
 * participates as worker 0, which makes a single-worker pool run inline
 * with zero synchronisation overhead.
 *
 * A task that throws no longer terminates the process: the first
 * exception is captured, the remaining tasks of that job are abandoned
 * (workers stop claiming), and parallelFor() — the job's completion
 * wait — rethrows it on the calling thread once every worker has
 * drained. Later jobs on the same pool run normally.
 */

#ifndef SURF_UTIL_THREAD_POOL_HH
#define SURF_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace surf {

/**
 * Progress of a producer task that other tasks of the same parallelFor()
 * job consume step by step (e.g. a sampler publishing epochs to decode
 * tasks). Publishing is a release store and waiting an acquire load, so
 * whatever the producer wrote before publish(n) is visible to a task
 * whose waitFor(n) returned true.
 *
 * A producer that throws must call fail() before rethrowing: the pool's
 * abort only stops new claims, so a consumer already waiting would
 * otherwise hold parallelFor()'s completion wait forever. The pool claims
 * tasks in index order, so a producer at a lower task index than its
 * consumers is always running (or inline-first) while they wait.
 */
class JobProgress
{
  public:
    /** Before the job starts: `done` steps are already available. */
    void reset(uint32_t done) { done_.store(done, std::memory_order_relaxed); }
    /** Steps [0, done) are ready; wakes every waiter. */
    void
    publish(uint32_t done)
    {
        done_.store(done, std::memory_order_release);
        done_.notify_all();
    }
    /** The producer failed: every waiter returns false. */
    void fail() { publish(kFailed); }
    /** Block until `steps` steps are ready; false once the producer
     *  failed. */
    bool
    waitFor(uint32_t steps) const
    {
        uint32_t seen = done_.load(std::memory_order_acquire);
        while (seen < steps) {
            done_.wait(seen, std::memory_order_acquire);
            seen = done_.load(std::memory_order_acquire);
        }
        return seen != kFailed;
    }

  private:
    static constexpr uint32_t kFailed = UINT32_MAX;
    std::atomic<uint32_t> done_{0};
};

/** Persistent thread pool with indexed workers. */
class ThreadPool
{
  public:
    /** Task body: fn(task_index, worker_index), worker_index < size(). */
    using TaskFn = std::function<void(size_t, size_t)>;

    /**
     * @param workers total logical workers including the caller thread;
     *                0 picks hardwareThreads()
     */
    explicit ThreadPool(size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Logical worker count (background threads + the caller). */
    size_t size() const { return threads_.size() + 1; }

    /**
     * Run fn(t, w) for every task t in [0, num_tasks); blocks until all
     * tasks finished. Tasks are claimed dynamically, so per-task cost may
     * vary freely; determinism is the caller's job (e.g. per-worker
     * accumulators merged in a fixed order).
     *
     * If any task throws, the first captured exception is rethrown here
     * after all workers have stopped; tasks not yet claimed at that
     * point are skipped (the job's results are void anyway).
     */
    void parallelFor(size_t num_tasks, const TaskFn &fn);

    /** std::thread::hardware_concurrency with a sane floor of 1. */
    static size_t hardwareThreads();

  private:
    void workerLoop(size_t worker_index);
    /** Claim-and-run tasks until the shared counter is exhausted. */
    void drain(const TaskFn &fn, size_t num_tasks, size_t worker_index);

    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const TaskFn *job_ = nullptr; ///< current job (under mutex_)
    size_t job_tasks_ = 0;        ///< its task count (under mutex_)
    uint64_t epoch_ = 0;          ///< bumped per job (under mutex_)
    size_t draining_ = 0;         ///< workers inside drain (under mutex_)
    bool stop_ = false;
    std::atomic<size_t> next_task_{0};
    /** First exception thrown by a task of the current job (under
     *  mutex_); rethrown by parallelFor once the job has drained. */
    std::exception_ptr first_error_;
    /** Raised after a task throws: workers abandon unclaimed tasks. */
    std::atomic<bool> abort_{false};
};

} // namespace surf

#endif // SURF_UTIL_THREAD_POOL_HH
