/**
 * @file
 * The parallel experiment engine's scheduling half: a fixed-size
 * thread pool executing index-addressed jobs with deterministic result
 * placement.
 *
 * Jobs are pure functions of their index; results are written into
 * index-addressed slots, never appended in completion order, so any
 * sweep built on the pool produces byte-identical output at any job
 * count (--jobs 1, --jobs 4 and --jobs $(nproc) all print the same
 * tables). The worker count comes from, in priority order: an explicit
 * constructor argument (each driver's --jobs flag), the PFITS_JOBS
 * environment variable, and std::thread::hardware_concurrency().
 */

#ifndef POWERFITS_EXP_PARALLEL_HH
#define POWERFITS_EXP_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace pfits
{

/**
 * Worker count for new pools: PFITS_JOBS (clamped to >= 1), else
 * hardware_concurrency (>= 1).
 */
unsigned defaultJobs();

/** The largest job count any reader accepts: a pool thread per job,
 * so a typo must not become thousands of threads. */
constexpr unsigned kMaxJobs = 256;

/**
 * Parse a job count: decimal digits only (no sign, no space), value
 * 0..kMaxJobs. The one parser behind --jobs, -jN and PFITS_JOBS; each
 * caller keeps its own rule for 0.
 * @return the count, or nullopt when @p text is anything else.
 */
std::optional<unsigned> parseJobCount(std::string_view text);

/**
 * Parse a numeric flag value: decimal digits only (strtoull alone
 * would take a sign or leading space, and wrap "-1" to 2^64 - 1),
 * value at most @p max. @return false, @p out untouched, otherwise.
 */
bool parseU64(const char *text, uint64_t *out,
              uint64_t max = UINT64_MAX);

/**
 * One job that threw, reported to the submitter: the job's index plus
 * the exception's message. A worker that catches a throwing job keeps
 * draining the batch — a failure never takes down the worker thread or
 * the process, and the pool stays usable for the next batch.
 */
struct JobFailure
{
    size_t index = 0;
    std::string message; //!< what() for std::exception, else a stand-in
};

/**
 * A fixed-size pool running batches of index-addressed jobs.
 *
 * run(n, fn) executes fn(0) .. fn(n-1) across the workers plus the
 * calling thread and blocks until every job finished. Batches are
 * serialized (one at a time); run() must not be called from inside a
 * job. A pool of one job runs everything inline on the caller — the
 * deterministic serial baseline.
 */
class ThreadPool
{
  public:
    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads working a batch (workers + the caller). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run @p fn for every index in [0, n), blocking until all done.
     * If jobs threw, the exception of the lowest-index failed job is
     * rethrown here (the batch still runs to completion first).
     */
    void run(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Like run(), but instead of rethrowing, every job that threw is
     * reported as a structured JobFailure (sorted by index). The batch
     * always runs to completion; an empty vector means every job
     * succeeded. This is the submitter-facing failure surface for
     * callers that must outlive bad jobs.
     */
    std::vector<JobFailure>
    runCollect(size_t n, const std::function<void(size_t)> &fn);

    /** The process-wide pool (sized by defaultJobs() at first use). */
    static ThreadPool &shared();

  private:
    struct Batch;

    std::shared_ptr<Batch> runBatch(size_t n,
                                    const std::function<void(size_t)> &fn);

    void workerLoop(unsigned worker);

    const unsigned jobs_;

    std::mutex mu_;
    std::condition_variable work_cv_; //!< workers wait for a batch
    uint64_t generation_ = 0;         //!< bumped per batch
    bool stopping_ = false;
    std::shared_ptr<Batch> current_;  //!< the in-flight batch, if any

    std::mutex run_mu_;               //!< serializes run() callers
    std::vector<std::thread> workers_;
};

/**
 * Map [0, n) through @p fn on @p pool, collecting results by index.
 * The value type must be default-constructible and movable.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(ThreadPool &pool, size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    pool.run(n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace pfits

#endif // POWERFITS_EXP_PARALLEL_HH
