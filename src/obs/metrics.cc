#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "obs/json.hh"

namespace pfits
{

std::atomic<MetricRegistry *> MetricRegistry::current_{nullptr};

uint64_t
monotonicNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// --- MetricHistogram -----------------------------------------------------

namespace
{

/** log2 of the quantized range: u = 2^ceil(log2(hi - lo)) / 2^20. */
constexpr int kRangeBits = 20;

} // namespace

MetricHistogram::MetricHistogram(double lo, double hi, size_t subBuckets)
    : lo_(lo), hi_(hi),
      unit_(hi > lo ? std::exp2(std::ceil(std::log2(hi - lo)) - kRangeBits)
                    : 1.0),
      subBits_(static_cast<unsigned>(
          std::bit_width(std::bit_ceil(subBuckets ? subBuckets : 1)) - 1))
{
    if (!(hi > lo))
        fatal("metrics: histogram range [%g, %g) is empty", lo, hi);
    if (subBuckets == 0)
        fatal("metrics: histogram needs at least one sub-bucket");
    const auto units = static_cast<uint64_t>(std::ceil((hi - lo) / unit_));
    counts_.assign(bucketOf(units - 1) + 1, 0);
}

size_t
MetricHistogram::bucketOf(uint64_t units) const
{
    // The first two octaves' worth of units map 1:1; above them each
    // octave keeps its top subBits_ + 1 bits (the leading one and the
    // sub-bucket), i.e. drops `shift` low bits.
    if (units < (2ull << subBits_))
        return static_cast<size_t>(units);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(units)) - subBits_ - 1;
    return (static_cast<size_t>(shift) << subBits_) +
           static_cast<size_t>(units >> shift);
}

double
MetricHistogram::bucketLow(size_t idx) const
{
    if (idx < (2u << subBits_))
        return lo_ + static_cast<double>(idx) * unit_;
    const size_t shift = (idx >> subBits_) - 1;
    const size_t sub = idx - (shift << subBits_);
    return lo_ + std::ldexp(static_cast<double>(sub) * unit_,
                            static_cast<int>(shift));
}

double
MetricHistogram::bucketWidth(size_t idx) const
{
    if (idx < (2u << subBits_))
        return unit_;
    return std::ldexp(unit_, static_cast<int>((idx >> subBits_) - 1));
}

void
MetricHistogram::sample(double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
    if (!(v >= lo_)) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        const size_t idx =
            bucketOf(static_cast<uint64_t>((v - lo_) / unit_));
        ++counts_[std::min(idx, counts_.size() - 1)];
    }
}

uint64_t
MetricHistogram::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

double
MetricHistogram::sum() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
}

double
MetricHistogram::minSample() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return min_;
}

double
MetricHistogram::maxSample() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return max_;
}

double
MetricHistogram::mean() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::vector<uint64_t>
MetricHistogram::bucketSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
}

uint64_t
MetricHistogram::underflow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return underflow_;
}

uint64_t
MetricHistogram::overflow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return overflow_;
}

double
MetricHistogram::percentile(double p) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return percentileLocked(p);
}

double
MetricHistogram::percentileLocked(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return min_;
    if (p >= 1.0)
        return max_;

    // Rank of the requested quantile among the count_ samples, then
    // walk the bins (underflow, buckets, overflow) to the one that
    // holds it. Underflow samples are only known to be below lo_, so
    // they answer with the observed min; overflow with the observed
    // max; a regular bucket interpolates linearly across its width by
    // the rank's position inside the bucket's population.
    double rank = p * static_cast<double>(count_);
    double seen = static_cast<double>(underflow_);
    if (rank <= seen)
        return min_;
    for (size_t i = 0; i < counts_.size(); ++i) {
        double in_bucket = static_cast<double>(counts_[i]);
        if (rank <= seen + in_bucket) {
            double frac = in_bucket > 0 ? (rank - seen) / in_bucket : 0;
            double v = bucketLow(i) + frac * bucketWidth(i);
            return std::min(std::max(v, min_), max_);
        }
        seen += in_bucket;
    }
    return max_;
}

void
MetricHistogram::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();
    w.field("count", count_);
    w.field("sum", sum_);
    w.field("min", count_ ? min_ : 0.0);
    w.field("max", count_ ? max_ : 0.0);
    w.field("mean", count_ ? sum_ / static_cast<double>(count_) : 0.0);
    w.field("p50", percentileLocked(0.50));
    w.field("p95", percentileLocked(0.95));
    w.field("p99", percentileLocked(0.99));
    w.field("bucket_lo", lo_);
    w.field("unit", unit_);
    w.field("sub_buckets", uint64_t{1} << subBits_);
    w.field("underflow", underflow_);
    w.field("overflow", overflow_);
    // Only the populated span: six decades of buckets are mostly empty.
    size_t first = 0;
    size_t end = counts_.size();
    while (first < end && counts_[first] == 0)
        ++first;
    while (end > first && counts_[end - 1] == 0)
        --end;
    w.field("bucket_first", static_cast<uint64_t>(first));
    w.key("buckets");
    w.beginArray();
    for (size_t i = first; i < end; ++i)
        w.value(counts_[i]);
    w.endArray();
    w.endObject();
}

// --- MetricRegistry ------------------------------------------------------

MetricCounter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (gauges_.count(name) || histograms_.count(name))
        fatal("metrics: '%s' already registered as another kind",
              name.c_str());
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>();
    return *slot;
}

MetricGauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (counters_.count(name) || histograms_.count(name))
        fatal("metrics: '%s' already registered as another kind",
              name.c_str());
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>();
    return *slot;
}

MetricHistogram &
MetricRegistry::histogram(const std::string &name, double lo, double hi,
                          size_t subBuckets)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (counters_.count(name) || gauges_.count(name))
        fatal("metrics: '%s' already registered as another kind",
              name.c_str());
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>(lo, hi, subBuckets);
    return *slot;
}

size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

void
MetricRegistry::writeJson(JsonWriter &w) const
{
    // One flat, name-sorted object: the three kind maps are merged so
    // a manifest diff sees stable lines regardless of instrument kind.
    std::lock_guard<std::mutex> lock(mu_);
    auto ci = counters_.begin();
    auto gi = gauges_.begin();
    auto hi = histograms_.begin();
    w.beginObject();
    while (ci != counters_.end() || gi != gauges_.end() ||
           hi != histograms_.end()) {
        const std::string *next = nullptr;
        if (ci != counters_.end())
            next = &ci->first;
        if (gi != gauges_.end() && (!next || gi->first < *next))
            next = &gi->first;
        if (hi != histograms_.end() && (!next || hi->first < *next))
            next = &hi->first;
        if (ci != counters_.end() && &ci->first == next) {
            w.field(ci->first, ci->second->value());
            ++ci;
        } else if (gi != gauges_.end() && &gi->first == next) {
            w.key(gi->first);
            w.beginObject();
            w.field("value", gi->second->value());
            w.field("max", gi->second->maxValue());
            w.endObject();
            ++gi;
        } else {
            w.key(hi->first);
            hi->second->writeJson(w);
            ++hi;
        }
    }
    w.endObject();
}

MetricRegistry *
MetricRegistry::install(MetricRegistry *registry)
{
    return current_.exchange(registry, std::memory_order_acq_rel);
}

// --- ScopedTimerMs -------------------------------------------------------

ScopedTimerMs::ScopedTimerMs(const std::string &name, double lo,
                             double hi, size_t subBuckets)
    : registry_(MetricRegistry::current()), name_(name),
      kind_(Kind::Histogram), lo_(lo), hi_(hi), subBuckets_(subBuckets)
{
    if (registry_)
        startNs_ = monotonicNs();
}

ScopedTimerMs::ScopedTimerMs(const std::string &name)
    : registry_(MetricRegistry::current()), name_(name),
      kind_(Kind::Counter)
{
    if (registry_)
        startNs_ = monotonicNs();
}

ScopedTimerMs::~ScopedTimerMs()
{
    if (!registry_)
        return;
    double ms =
        static_cast<double>(monotonicNs() - startNs_) / 1e6;
    if (kind_ == Kind::Histogram)
        registry_->histogram(name_, lo_, hi_, subBuckets_).sample(ms);
    else
        registry_->counter(name_).add(static_cast<uint64_t>(ms));
}

} // namespace pfits
