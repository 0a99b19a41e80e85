/**
 * @file
 * Engine self-metrics: a thread-safe registry of hierarchical named
 * counters, gauges and log-linear latency histograms.
 *
 * The experiment engine (Runner phases, SimCache hits/misses/fresh
 * sims, ThreadPool queue depth and per-worker busy time, per-sim wall
 * times) reports into whichever registry is installed process-wide.
 * When none is installed — the default — every instrumentation site is
 * one relaxed atomic load and a predictable branch, and the engine's
 * hot paths are untouched (the Machine::run loop is not instrumented
 * at all; micro_simspeed measures zero overhead).
 *
 * Names are dot-separated paths ("simcache.sim_ms",
 * "pool.worker.0.busy_us"); the registry stores them flat and the
 * manifest writer emits them as one sorted JSON object, which keeps
 * regression diffs line-stable.
 */

#ifndef POWERFITS_OBS_METRICS_HH
#define POWERFITS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pfits
{

class JsonWriter;

/** A monotonically increasing event counter (lock-free increments). */
class MetricCounter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** A point-in-time level (queue depth, cache entries); tracks its max. */
class MetricGauge
{
  public:
    void
    set(int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
        updateMax(v);
    }

    void
    add(int64_t delta)
    {
        int64_t v =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        updateMax(v);
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }
    int64_t maxValue() const { return max_.load(std::memory_order_relaxed); }

  private:
    void
    updateMax(int64_t v)
    {
        int64_t m = max_.load(std::memory_order_relaxed);
        while (v > m &&
               !max_.compare_exchange_weak(m, v,
                                           std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> value_{0};
    std::atomic<int64_t> max_{0};
};

/**
 * A latency histogram over HDR-style log-linear buckets in [lo, hi),
 * plus underflow/overflow, count, sum, min and max. Values are
 * measured from lo in units u = 2^ceil(log2(hi - lo)) / 2^20. The
 * first 2S units get one bucket each; above them every octave
 * [2^k S u, 2^(k+1) S u) splits into S equal sub-buckets (S, the
 * sub-bucket count, is a power of two). A bucket is thus at most 1/S
 * of its low edge wide across six decades below hi, so percentiles
 * keep their relative precision whether a phase takes 3 ms or 300
 * (fixed-width buckets lost every small sample in bucket 0).
 * sample() takes a short internal
 * lock — engine events are per-simulation (milliseconds apart), so
 * contention is irrelevant; correctness under PFITS_JOBS=4 workers is
 * what the tests pin down.
 */
class MetricHistogram
{
  public:
    /**
     * @param lo         lowest bucketed value (inclusive)
     * @param hi         end of the bucketed range (exclusive; > lo)
     * @param subBuckets sub-buckets per octave (>= 1, rounded up to a
     *                   power of two): the relative precision
     */
    MetricHistogram(double lo, double hi, size_t subBuckets);

    void sample(double v);

    uint64_t count() const;
    double sum() const;
    double minSample() const;
    double maxSample() const;
    double mean() const;

    double bucketLow(size_t idx) const;
    double bucketWidth(size_t idx) const;
    size_t bucketCount() const { return counts_.size(); }

    /** Snapshot of per-bucket counts (index-aligned with bucketLow). */
    std::vector<uint64_t> bucketSnapshot() const;
    uint64_t underflow() const;
    uint64_t overflow() const;

    /**
     * Estimate the @p p quantile (0 <= p <= 1) by linear interpolation
     * inside the containing bucket, so the estimate lies within one
     * bucket width of the exact order statistic. Samples in the
     * underflow bin resolve to the observed min, overflow to the
     * observed max, and the result is clamped to [min, max] so a
     * sparse bucket cannot report a value outside what was actually
     * sampled. 0 when empty.
     */
    double percentile(double p) const;

    /**
     * {"count","sum","min","max","mean","p50","p95","p99","bucket_lo",
     * "unit","sub_buckets","underflow","overflow","bucket_first",
     * "buckets":[..]}: buckets lists the counts of buckets
     * bucket_first through the last non-empty one.
     */
    void writeJson(JsonWriter &w) const;

  private:
    size_t bucketOf(uint64_t units) const;
    double percentileLocked(double p) const;

    const double lo_;
    const double hi_;
    const double unit_;
    const unsigned subBits_; //!< log2 of the sub-bucket count

    mutable std::mutex mu_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * The process-wide metric surface. Thread-safe: any worker may create
 * or update instruments concurrently; creation of the same name twice
 * returns the same instrument (a name may hold only one kind —
 * re-registering as a different kind throws). Histogram shape is fixed
 * by the first registration.
 *
 * install() publishes a registry for the engine's instrumentation
 * sites; install(nullptr) detaches it. The bench harness installs one
 * for the duration of a --json run and serializes it into the
 * manifest's "metrics" section.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    MetricCounter &counter(const std::string &name);
    MetricGauge &gauge(const std::string &name);
    MetricHistogram &histogram(const std::string &name, double lo,
                               double hi, size_t subBuckets);

    /** Number of registered instruments of all kinds. */
    size_t size() const;

    /**
     * Emit every instrument as one sorted JSON object: counters as
     * integers, gauges as {"value","max"}, histograms as their stats
     * object.
     */
    void writeJson(JsonWriter &w) const;

    /** The installed registry, or nullptr (the zero-overhead default). */
    static MetricRegistry *
    current()
    {
        return current_.load(std::memory_order_acquire);
    }

    /** Install @p registry process-wide; @return the previous one. */
    static MetricRegistry *install(MetricRegistry *registry);

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
    std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;

    static std::atomic<MetricRegistry *> current_;
};

/**
 * RAII wall-clock timer: records elapsed milliseconds into the named
 * histogram (or counter, as accumulated whole ms) of the registry that
 * was installed at construction. Does nothing when none was.
 */
class ScopedTimerMs
{
  public:
    enum class Kind : uint8_t { Histogram, Counter };

    /**
     * Histogram form. @p lo/@p hi/@p subBuckets shape the histogram on
     * first use (ignored afterwards).
     */
    ScopedTimerMs(const std::string &name, double lo, double hi,
                  size_t subBuckets);

    /** Counter form: accumulates total elapsed ms under @p name. */
    explicit ScopedTimerMs(const std::string &name);

    ~ScopedTimerMs();

    ScopedTimerMs(const ScopedTimerMs &) = delete;
    ScopedTimerMs &operator=(const ScopedTimerMs &) = delete;

  private:
    MetricRegistry *registry_;
    std::string name_;
    Kind kind_;
    double lo_ = 0, hi_ = 0;
    size_t subBuckets_ = 0;
    uint64_t startNs_ = 0;
};

/** Monotonic nanosecond timestamp (steady_clock). */
uint64_t monotonicNs();

} // namespace pfits

#endif // POWERFITS_OBS_METRICS_HH
