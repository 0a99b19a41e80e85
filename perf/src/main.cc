/**
 * @file
 * pfits_perf: the benchmark program. One invocation runs one workload:
 *
 *   pfits_perf --workload W [--seed N] [--seconds S] [--trace 0|1]
 *              [--trace-dir DIR] [--write-expected]
 *
 * It runs from the repository root: it reads tests/golden and
 * perf/expected and keeps daemon stores under .bench_build.
 *
 * Untraced (--trace 0) it sets the workload up three times (each set-up
 * ends with a checked reference rep), then runs closed-loop reps for S
 * seconds and reports the end-to-end metrics. Traced (--trace 1) it
 * sets up once, runs untraced reps for S/2 seconds, one rep under a
 * TraceRecorder and MetricRegistry, then a serial layer replay of the
 * same inputs, and reports the per-layer metrics derived from the
 * trace. Every metric is printed as "workload metric value unit (n,
 * q1, q3)"; the last line is one JSON object {correct, attempted,
 * failed, metrics}. The exit code is 0 only when every check passed.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "daemon.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf.hh"
#include "trace_stats.hh"

using namespace perf;

namespace
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool writeExpected = false;
    std::string traceDir = ".bench_build/perf-trace";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pfits_perf: " << why << "\n"
              << "usage: pfits_perf --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-dir DIR] [--write-expected]\n"
              << "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const size_t eq = arg.find('=');
        const bool inline_value = arg.rfind("--", 0) == 0 &&
                                  eq != std::string::npos;
        if (inline_value) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        auto next = [&]() -> std::string {
            if (inline_value)
                return value;
            if (i + 1 >= argc)
                usage(arg + " wants a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--seed") {
            const std::string text = next();
            char *end = nullptr;
            errno = 0;
            opts.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || text[0] == '-' || *end != '\0' || errno)
                usage("bad value '" + text + "' for --seed");
        }
        else if (arg == "--seconds") {
            const std::string text = next();
            char *end = nullptr;
            opts.seconds = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(opts.seconds >= 0))
                usage("bad value '" + text + "' for --seconds");
        }
        else if (arg == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            opts.trace = v == "1";
        } else if (arg == "--trace-dir")
            opts.traceDir = next();
        else if (arg == "--write-expected" && !inline_value)
            opts.writeExpected = true;
        else
            usage("unknown argument '" + std::string(argv[i]) + "'");
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

// -- statistics --------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them. */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return {median(v), median(v)};
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    auto at = [&](long i) {
        long j = i * (ld + 1) / 4;
        const long delta = i * (ld + 1) - j * 4;
        j = std::clamp(j, 1L, ld - 1);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    return {at(1), at(3)};
}

/** Nearest-rank percentile, @p p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

// -- host accounting ---------------------------------------------------------

struct Usage
{
    double user = 0, sys = 0;
    long volCs = 0, involCs = 0, minflt = 0;

    static Usage
    now()
    {
        struct rusage ru;
        ::getrusage(RUSAGE_SELF, &ru);
        auto s = [](const timeval &t) { return t.tv_sec + t.tv_usec / 1e6; };
        return {s(ru.ru_utime), s(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw,
                ru.ru_minflt};
    }

    double cpu() const { return user + sys; }
};

double
secondsSince(uint64_t t0)
{
    return static_cast<double>(pfits::monotonicNs() - t0) / 1e9;
}

// -- results -----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::vector<double> samples; //!< for (n, q1, q3); empty = one value
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    void
    add(const RepResult &rep)
    {
        attempted += rep.ops;
        failed += rep.failed;
        errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    }

    void
    check(const std::string &why)
    {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            errors.push_back(why);
        }
    }

    void
    metric(std::string name, double value, std::string unit,
           std::vector<double> samples = {})
    {
        if (!std::isfinite(value))
            value = 0;
        metrics.push_back(
            {std::move(name), value, std::move(unit), std::move(samples)});
    }

    bool correct() const { return failed == 0 && errors.empty(); }
};

std::string
number(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

void
report(const std::string &workload, const Outcome &out)
{
    for (const std::string &e : out.errors)
        std::cerr << workload << ": CHECK FAILED: " << e << "\n";
    for (const Metric &m : out.metrics) {
        std::cout << workload << " " << m.name << " " << number(m.value)
                  << " " << m.unit;
        if (m.samples.empty()) {
            std::cout << " (n=1)\n";
        } else {
            const auto [q1, q3] = quartiles(m.samples);
            std::cout << " (n=" << m.samples.size() << ", q1=" << number(q1)
                      << ", q3=" << number(q3) << ")\n";
        }
    }
    std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

// -- the two modes -----------------------------------------------------------

constexpr int kSetups = 3;  //!< set-ups per untraced run (median reported)
constexpr size_t kMinReps = 3;

/** Set up and run the checked reference rep; @return it. */
RepResult
setUpOnce(Workload &wl, Outcome &out)
{
    wl.setUp();
    RepResult ref = wl.rep();
    out.add(ref);
    const std::string why = wl.checkReference(ref);
    out.check(why.empty() ? "" : "reference: " + why);
    opLog().take();
    return ref;
}

/** One timed rep; its digest must equal the reference rep's. */
RepResult
timedRep(Workload &wl, uint64_t reference, Outcome &out, double *wall_s)
{
    const uint64_t t0 = pfits::monotonicNs();
    RepResult rep = wl.rep();
    *wall_s = secondsSince(t0);
    out.add(rep);
    out.check(rep.digest() == reference
                  ? ""
                  : "rep output differs from the reference rep");
    return rep;
}

Outcome
runUntraced(Workload &wl, const Options &opts)
{
    Outcome out;
    std::vector<double> setup_s;
    uint64_t reference = 0;
    for (int k = 0; k < kSetups; ++k) {
        const uint64_t t0 = pfits::monotonicNs();
        const RepResult ref = setUpOnce(wl, out);
        setup_s.push_back(secondsSince(t0));
        if (k == 0)
            reference = ref.digest();
        else
            out.check(ref.digest() == reference
                          ? ""
                          : "set-up reference reps disagree");
        if (k + 1 < kSetups)
            wl.tearDown();
    }

    std::vector<double> walls, cpus, latencies;
    const double daemon0 = wl.daemonCpuSeconds();
    const uint64_t start = pfits::monotonicNs();
    while (secondsSince(start) < opts.seconds || walls.size() < kMinReps) {
        const Usage u0 = Usage::now();
        double wall = 0;
        timedRep(wl, reference, out, &wall);
        const Usage u1 = Usage::now();
        OpLog::Snapshot snap = opLog().take();
        walls.push_back(wall);
        cpus.push_back(u1.cpu() - u0.cpu());
        latencies.insert(latencies.end(), snap.latencyMs.begin(),
                         snap.latencyMs.end());
    }
    // The daemon's CPU is spread evenly over the reps it served.
    const double daemon_share =
        (wl.daemonCpuSeconds() - daemon0) / static_cast<double>(walls.size());
    for (double &c : cpus)
        c += daemon_share;
    wl.tearDown();

    out.metric("setup_s", median(setup_s), "s", setup_s);
    out.metric("sweep_s", median(walls), "s", walls);
    out.metric("cpu_s", sum(cpus) / static_cast<double>(cpus.size()), "s",
               cpus);
    out.metric("op_p50_ms", percentile(latencies, 0.50), "ms", latencies);
    out.metric("peak_rss_mb",
               std::max(peakRssMb("self"), Daemon::largestPeakRssMb()), "MB");
    return out;
}

/** Run pfits_report validate-trace on @p path; "" when it passes. */
std::string
validateTrace(const std::string &path)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(2, 1); // its verdict line belongs with the diagnostics
        ::execl(PFITS_REPORT_PATH, PFITS_REPORT_PATH, "validate-trace",
                path.c_str(), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return "pfits_report validate-trace rejected " + path;
    return "";
}

/** Installs a metric registry and trace recorder for its lifetime. */
class Instrumented
{
  public:
    Instrumented(pfits::MetricRegistry *registry,
                 pfits::TraceRecorder *recorder)
    {
        pfits::MetricRegistry::install(registry);
        pfits::TraceRecorder::install(recorder);
    }

    ~Instrumented()
    {
        pfits::TraceRecorder::install(nullptr);
        pfits::MetricRegistry::install(nullptr);
    }

    Instrumented(const Instrumented &) = delete;
    Instrumented &operator=(const Instrumented &) = delete;
};

Outcome
runTraced(Workload &wl, const Options &opts)
{
    Outcome out;
    const RepResult ref = setUpOnce(wl, out);
    const Workload::SetupFacts facts = wl.setupFacts();

    // Untraced reps first: the baseline the traced rep is compared to.
    std::vector<double> walls, latencies;
    uint64_t delivered = 0;
    const uint64_t start = pfits::monotonicNs();
    while (secondsSince(start) < opts.seconds / 2 || walls.empty()) {
        double wall = 0;
        timedRep(wl, ref.digest(), out, &wall);
        walls.push_back(wall);
        OpLog::Snapshot snap = opLog().take();
        delivered += snap.instructions;
        latencies.insert(latencies.end(), snap.latencyMs.begin(),
                         snap.latencyMs.end());
    }

    pfits::MetricRegistry registry;
    auto recorder = std::make_unique<pfits::TraceRecorder>();
    uint32_t main_lane = 0;
    Usage u0, u1;
    double traced_wall = 0;
    RepResult traced;
    OpLog::Snapshot ops;
    std::map<std::string, double> svc; // the traced rep's svc.* counters
    ReplayResult replay;
    {
        const Instrumented on(&registry, recorder.get());
        recorder->nameThisThread("main");
        main_lane = recorder->threadLane();
        u0 = Usage::now();
        {
            pfits::TraceSpan span("perf.rep", "perf");
            traced = timedRep(wl, ref.digest(), out, &traced_wall);
        }
        u1 = Usage::now();
        ops = opLog().take();
        for (const char *name :
             {"svc.requests", "svc.retries", "svc.timeouts", "svc.fallbacks",
              "svc.store.hits", "svc.store.misses"})
            svc[name] = static_cast<double>(registry.counter(name).value());
        pfits::TraceSpan span("perf.replay", "perf");
        replay = wl.replay();
    }
    opLog().take();
    wl.tearDown();

    out.check(replay.itemDigests == ref.itemDigests
                  ? ""
                  : "layer replay results differ from the Runner's");
    out.check(replay.guards == ref.guards
                  ? ""
                  : "layer replay guard counts differ from the Runner's");

    std::filesystem::create_directories(opts.traceDir);
    const std::string path = opts.traceDir + "/" + wl.name() + ".seed" +
                             std::to_string(opts.seed) + ".trace.json";
    std::string err;
    if (!recorder->writeFile(path, &err))
        throw std::runtime_error("cannot write " + path + ": " + err);
    recorder.reset();
    out.check(validateTrace(path));
    TraceSummary ts;
    if (!summarizeTrace(path, main_lane, &ts, &err))
        throw std::runtime_error(err);
    out.check(ts.reps == 1 ? "" : "traced rep span missing from trace");
    const double attributed = ts.replayMs - ts.unattributedMs;
    out.check(attributed >= 0.9 * ts.replayMs
                  ? ""
                  : "layer spans cover only " +
                        number(100 * ratio(attributed, ts.replayMs)) +
                        "% of the replay");
    std::cerr << wl.name() << ": trace " << path << " (" << ts.events
              << " events)\n";

    auto layer = [&](const char *name) {
        auto it = ts.layerMs.find(name);
        return it == ts.layerMs.end() ? 0.0 : it->second;
    };
    const auto sim_instr = static_cast<double>(replay.simInstr);
    const auto chip_instr = static_cast<double>(replay.chipInstr);
    const Guards &g = replay.guards;
    const double jobs = benchJobs();
    const double busy_ms = static_cast<double>(ops.busyNs) / 1e6;
    const double op_phase_ms =
        traced.requests ? ts.simulatePhaseMs : ts.preparePhaseMs;

    out.metric("mibench.build_ms", layer("mibench.build"), "ms");
    out.metric("thumb.estimate_ms", layer("thumb.estimate"), "ms");
    out.metric("fits.profile_ms", layer("fits.profile"), "ms");
    out.metric("fits.profile_minstr",
               static_cast<double>(replay.profileInstr) / 1e6, "Minstr");
    out.metric("fits.synth_ms", layer("fits.synth"), "ms");
    out.metric("fits.translate_ms", layer("fits.translate"), "ms");
    out.metric("sim.frontend_ms", layer("sim.frontend"), "ms");
    out.metric("sim.run_ms", layer("sim.run"), "ms");
    out.metric("sim.runs", static_cast<double>(replay.simRuns), "count");
    out.metric("sim.minstr", sim_instr / 1e6, "Minstr");
    out.metric("sim.ns_per_instr", ratio(layer("sim.run") * 1e6, sim_instr),
               "ns");
    out.metric("sim.chip_run_ms", layer("sim.chip_run"), "ms");
    out.metric("sim.chip_runs", static_cast<double>(replay.chipRuns),
               "count");
    out.metric("sim.chip_minstr", chip_instr / 1e6, "Minstr");
    out.metric("sim.chip_ns_per_instr",
               ratio(layer("sim.chip_run") * 1e6, chip_instr), "ns");
    out.metric("sim.cycles", static_cast<double>(g.cycles), "count");
    out.metric("cache.icache_accesses",
               static_cast<double>(g.icacheAccesses), "count");
    out.metric("cache.icache_misses", static_cast<double>(g.icacheMisses),
               "count");
    out.metric("cache.icache_memo_hits",
               static_cast<double>(g.icacheMemoHits), "count");
    out.metric("cache.dcache_accesses",
               static_cast<double>(g.dcacheAccesses), "count");
    out.metric("cache.dcache_misses", static_cast<double>(g.dcacheMisses),
               "count");
    out.metric("cache.l2_accesses", static_cast<double>(g.l2Accesses),
               "count");
    out.metric("cache.l2_misses", static_cast<double>(g.l2Misses), "count");
    out.metric("coherence.invalidations",
               static_cast<double>(g.invalidations), "count");
    out.metric("coherence.back_invalidations",
               static_cast<double>(g.backInvalidations), "count");
    out.metric("power.eval_ms", layer("power.eval"), "ms");
    out.metric("power.evals", static_cast<double>(replay.powerEvals),
               "count");
    out.metric("exp.requests", static_cast<double>(traced.requests),
               "count");
    out.metric("exp.op_busy_ms", busy_ms, "ms");
    out.metric("exp.op_p90_ms", percentile(latencies, 0.90), "ms",
               latencies);
    out.metric("exp.prepare_phase_ms", ts.preparePhaseMs, "ms");
    out.metric("exp.simulate_phase_ms", ts.simulatePhaseMs, "ms");
    out.metric("exp.tables_ms", traced.tablesMs, "ms");
    out.metric("exp.pool_util", ratio(busy_ms, jobs * op_phase_ms), "ratio");
    out.metric("exp.fresh_sims", static_cast<double>(traced.freshSims),
               "count");
    out.metric("exp.memo_hit_ratio",
               ratio(static_cast<double>(traced.requests - traced.freshSims),
                     static_cast<double>(traced.requests)),
               "ratio");
    out.metric("exp.minstr_per_s",
               ratio(static_cast<double>(delivered) / 1e6, sum(walls)),
               "Minstr/s");
    out.metric("svc.requests", svc["svc.requests"], "count");
    out.metric("svc.retries", svc["svc.retries"], "count");
    out.metric("svc.timeouts", svc["svc.timeouts"], "count");
    out.metric("svc.fallbacks", svc["svc.fallbacks"], "count");
    out.metric("svc.store_hits", svc["svc.store.hits"], "count");
    out.metric("svc.store_misses", svc["svc.store.misses"], "count");
    out.metric("svc.client_ms", layer("svc.client"), "ms");
    out.metric("svc.daemon_start_ms", facts.daemonStartMs, "ms");
    out.metric("svc.populate_ms", facts.populateMs, "ms");
    out.metric("svc.store_bytes", static_cast<double>(facts.storeBytes), "B");
    out.metric("host.user_s", u1.user - u0.user, "s");
    out.metric("host.sys_s", u1.sys - u0.sys, "s");
    out.metric("host.vol_ctx_switches",
               static_cast<double>(u1.volCs - u0.volCs), "count");
    out.metric("host.invol_ctx_switches",
               static_cast<double>(u1.involCs - u0.involCs), "count");
    out.metric("host.minor_faults", static_cast<double>(u1.minflt - u0.minflt),
               "count");
    out.metric("trace.replay_ms", ts.replayMs, "ms");
    out.metric("trace.unattributed_ms", ts.unattributedMs, "ms");
    out.metric("trace.overhead", ratio(traced_wall, median(walls)), "ratio");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(opts.workload, opts.seed);
    if (!wl)
        usage("unknown workload '" + opts.workload + "'");

    try {
        std::filesystem::create_directories(kTmpDir);
        if (opts.writeExpected) {
            wl->setUp();
            const RepResult rep = wl->rep();
            wl->tearDown();
            const std::string text = wl->expectedText(rep);
            if (text.empty() || rep.failed)
                throw std::runtime_error("no reference output to write");
            const std::string path = std::string(kExpectedDir) + "/" +
                                     wl->name() + ".seed" +
                                     std::to_string(opts.seed) + ".txt";
            std::ofstream file(path, std::ios::binary);
            file << text;
            if (!file.flush())
                throw std::runtime_error("cannot write " + path);
            std::cerr << "wrote " << path << "\n";
            return 0;
        }
        const Outcome out =
            opts.trace ? runTraced(*wl, opts) : runUntraced(*wl, opts);
        wl.reset();
        report(opts.workload, out);
        return out.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "pfits_perf: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
}
