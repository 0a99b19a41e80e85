/**
 * @file
 * Shared pieces of pfits_perf, the benchmark program: result digests,
 * guard counts, the operation log, the SimService wrapper that times
 * every request, and the interface each workload implements.
 *
 * pfits_perf reaches the product only through its public library APIs
 * (Runner, the fig* table functions, prepareBenchmark, the layer functions,
 * SimCache, installSimService, SvcClient) and the pfitsd binary, and it
 * always runs default ExperimentParams/CoreConfig, so it measures what
 * a user of the library gets.
 */

#ifndef PFITS_PERF_PERF_HH
#define PFITS_PERF_PERF_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/simservice.hh"

namespace perf
{

/** Engine worker threads every workload runs with: min(4, nproc). */
unsigned benchJobs();

/** 64-bit FNV-1a accumulator for result digests. */
class Digest
{
  public:
    Digest &bytes(const void *data, size_t n);
    Digest &u64(uint64_t v) { return bytes(&v, sizeof(v)); }
    Digest &f64(double v) { return bytes(&v, sizeof(v)); }
    Digest &str(const std::string &s);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** "0x" + 16 hex digits. */
std::string hex64(uint64_t v);

/**
 * Simulated activity a speed-only change must leave identical. For a
 * chip run the L1 counts are tile 0's (all a Runner result carries) and
 * cycles are the chip's.
 */
struct Guards
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t icacheMemoHits = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t invalidations = 0;
    uint64_t backInvalidations = 0;

    void add(const pfits::RunResult &run, const pfits::ChipRunStats &chip);
    bool operator==(const Guards &) const = default;
};

/** Instructions a simulation delivered (every tile's, for a chip). */
uint64_t deliveredInstructions(const pfits::RunResult &run,
                               const pfits::ChipRunStats &chip);

/**
 * Digest of one simulation: every RunResult counter, the emitted
 * output, the chip-level stats and the priced energies.
 */
uint64_t simDigest(const pfits::RunResult &run,
                   const pfits::ChipRunStats &chip,
                   const pfits::CachePowerBreakdown &icache,
                   const pfits::ChipPowerBreakdown &chipPower);

/** One rep's outputs: what the checks compare. */
struct RepResult
{
    std::vector<std::string> tables;   //!< the rep's tables, as printed
    std::vector<uint64_t> itemDigests; //!< per simulation or prepare
    Guards guards;
    uint64_t ops = 0;       //!< requests or prepares attempted
    uint64_t failed = 0;    //!< ... of which failed
    uint64_t requests = 0;  //!< SimService::simulate calls
    uint64_t freshSims = 0; //!< ... answered by a fresh local simulation
    double tablesMs = 0;    //!< building the tables from the results
    std::vector<std::string> errors;

    /** Count one failed operation and say why. */
    void fail(std::string why);

    /** Digest of text and every item; each rep must repeat the first. */
    uint64_t digest() const;
};

/** What a serial layer replay produced (times come from its trace). */
struct ReplayResult
{
    std::vector<uint64_t> itemDigests; //!< same order as RepResult's
    Guards guards;
    uint64_t simRuns = 0;       //!< Machine::run calls
    uint64_t simInstr = 0;      //!< instructions they executed
    uint64_t chipRuns = 0;      //!< Chip::run calls
    uint64_t chipInstr = 0;     //!< instructions over every tile
    uint64_t profileInstr = 0;  //!< instructions profiled
    uint64_t powerEvals = 0;    //!< power model evaluations
};

/**
 * Thread-safe log of the workload's unit operations: a
 * SimService::simulate call, or a prepareBenchmark call on isa_explore.
 */
class OpLog
{
  public:
    void record(uint64_t ns, uint64_t instructions);

    struct Snapshot
    {
        std::vector<double> latencyMs;
        uint64_t busyNs = 0;
        uint64_t instructions = 0;
    };

    /** Everything recorded since the last take(), then reset. */
    Snapshot take();

  private:
    std::mutex mu_;
    Snapshot cur_;
};

/** The process-wide operation log. */
OpLog &opLog();

/**
 * Installs itself with installSimService for its lifetime, times each
 * simulate() call into opLog() (inside a "perf.request" span when a
 * trace recorder is installed) and delegates to @p inner, or to the
 * local service when @p inner is null.
 */
class TimedService final : public pfits::SimService
{
  public:
    explicit TimedService(pfits::SimService *inner = nullptr);
    ~TimedService() override;
    TimedService(const TimedService &) = delete;
    TimedService &operator=(const TimedService &) = delete;

    pfits::SimResult simulate(const pfits::SimRequest &request) override;

  private:
    pfits::SimService *inner_;
    pfits::SimService *previous_;
};

/** Where pfits_perf reads and writes, relative to the repository root. */
inline constexpr const char *kGoldenDir = "tests/golden";
inline constexpr const char *kExpectedDir = "perf/expected";
inline constexpr const char *kTmpDir = ".bench_build/perf-tmp";

/** The interface every workload implements; see README.md. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** One-time preparation before the reference rep. */
    virtual void setUp() {}

    /** Undo setUp(); the next setUp() starts afresh. */
    virtual void tearDown() {}

    /** One unit of user work. */
    virtual RepResult rep() = 0;

    /**
     * Compare a rep with the committed reference output.
     * @return "" when it matches, else why not.
     */
    virtual std::string checkReference(const RepResult &rep) = 0;

    /** The reference text to commit for this seed ("" = none kept). */
    virtual std::string
    expectedText(const RepResult &) const
    {
        return "";
    }

    /**
     * Run the rep's inputs again on the calling thread, each public
     * layer call inside a span named after its layer.
     */
    virtual ReplayResult replay() = 0;

    /** CPU seconds used so far by this workload's pfitsd, if any. */
    virtual double daemonCpuSeconds() const { return 0; }

    /** Named setup-time and daemon facts for the per-layer report. */
    struct SetupFacts
    {
        double daemonStartMs = 0;
        double populateMs = 0;
        uint64_t storeBytes = 0;
    };
    virtual SetupFacts setupFacts() const { return {}; }
};

/** @return the workload called @p name with inputs from @p seed. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

/** Names accepted by makeWorkload, in run order. */
const std::vector<std::string> &workloadNames();

} // namespace perf

#endif // PFITS_PERF_PERF_HH
