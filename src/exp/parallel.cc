#include "exp/parallel.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace pfits
{

namespace
{

unsigned
envJobs()
{
    const char *env = std::getenv("PFITS_JOBS");
    if (!env || !*env)
        return 0;
    const std::optional<unsigned> v = parseJobCount(env);
    if (!v) {
        warn_once("ignoring malformed PFITS_JOBS='%s' (want 0..%u)", env,
                  kMaxJobs);
        return 0;
    }
    return *v == 0 ? 1u : *v;
}

} // namespace

unsigned
defaultJobs()
{
    if (unsigned env = envJobs())
        return env;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

std::optional<unsigned>
parseJobCount(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    unsigned v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + static_cast<unsigned>(c - '0');
        if (v > kMaxJobs)
            return std::nullopt;
    }
    return v;
}

/**
 * One run() call's state, shared (via shared_ptr) with every worker
 * that touches it. A worker waking up late simply finds all indices
 * claimed and backs off; the shared_ptr keeps the state alive past the
 * end of run(), so there is no window where a stale worker can touch a
 * destroyed batch.
 */
struct ThreadPool::Batch
{
    const std::function<void(size_t)> *fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0}; //!< next unclaimed job index

    std::mutex mu;
    std::condition_variable done_cv;
    size_t unfinished = 0;
    size_t firstErrorIndex = 0;
    std::exception_ptr firstError;
    std::vector<JobFailure> failures; //!< every throwing job, unsorted

    /**
     * Claim and execute jobs until none are left. fn is only invoked
     * for claimed indices (< n), all of which complete before run()
     * returns — so fn can never dangle here.
     *
     * @param worker stable worker identity for the pool.worker.N.*
     *        self-metrics (0 is the run() caller).
     */
    void
    work(unsigned worker)
    {
        MetricRegistry *metrics = MetricRegistry::current();
        MetricCounter *busy = nullptr;
        MetricGauge *depth = nullptr;
        if (metrics) {
            busy = &metrics->counter("pool.worker." +
                                     std::to_string(worker) +
                                     ".busy_us");
            depth = &metrics->gauge("pool.queue_depth");
        }
        TraceRecorder *trace = TraceRecorder::current();
        if (trace)
            trace->nameThisThread("worker " + std::to_string(worker));
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            if (depth) {
                size_t claimed = std::min(i + 1, n);
                depth->set(static_cast<int64_t>(n - claimed));
            }
            // One span per claimed job, on this worker's own lane; the
            // timestamps bracket the whole job (the simulator's inner
            // loops never see the clock).
            if (trace)
                trace->begin("job", "pool",
                             TraceArgs().add("index", i).add("worker",
                                                             worker));
            uint64_t t0 = busy ? monotonicNs() : 0;
            std::exception_ptr error;
            std::string message;
            try {
                (*fn)(i);
            } catch (const std::exception &e) {
                error = std::current_exception();
                message = e.what();
            } catch (...) {
                error = std::current_exception();
                message = "unknown exception";
            }
            if (busy)
                busy->add((monotonicNs() - t0) / 1000);
            if (trace)
                trace->end();
            std::lock_guard<std::mutex> lock(mu);
            if (error) {
                if (!firstError || i < firstErrorIndex) {
                    firstError = error;
                    firstErrorIndex = i;
                }
                failures.push_back({i, std::move(message)});
            }
            if (--unfinished == 0)
                done_cv.notify_all();
        }
    }
};

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    // The calling thread is worker 0; spawn the rest.
    workers_.reserve(jobs_ - 1);
    for (unsigned i = 1; i < jobs_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(unsigned worker)
{
    uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
            batch = current_;
        }
        if (batch)
            batch->work(worker);
    }
}

void
ThreadPool::run(size_t n, const std::function<void(size_t)> &fn)
{
    std::shared_ptr<Batch> batch = runBatch(n, fn);
    if (batch && batch->firstError)
        std::rethrow_exception(batch->firstError);
}

std::vector<JobFailure>
ThreadPool::runCollect(size_t n, const std::function<void(size_t)> &fn)
{
    std::shared_ptr<Batch> batch = runBatch(n, fn);
    if (!batch)
        return {};
    std::vector<JobFailure> failures = std::move(batch->failures);
    std::sort(failures.begin(), failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

std::shared_ptr<ThreadPool::Batch>
ThreadPool::runBatch(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return nullptr;
    std::lock_guard<std::mutex> batch_lock(run_mu_);
    if (MetricRegistry *metrics = MetricRegistry::current()) {
        metrics->counter("pool.batches").add();
        metrics->counter("pool.jobs").add(n);
        metrics->gauge("pool.queue_depth").set(static_cast<int64_t>(n));
    }
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->n = n;
    batch->unfinished = n;
    {
        std::lock_guard<std::mutex> lock(mu_);
        current_ = batch;
        ++generation_;
    }
    work_cv_.notify_all();
    batch->work(0); // the caller participates as worker 0
    {
        std::unique_lock<std::mutex> lock(batch->mu);
        batch->done_cv.wait(lock, [&] { return batch->unfinished == 0; });
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        current_.reset();
    }
    return batch;
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

} // namespace pfits
