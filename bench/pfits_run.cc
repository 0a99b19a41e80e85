/**
 * @file
 * pfits_run: the one driver for every experiment in the registry
 * (experiments.hh) — the paper's Figures 3-14, the ablations and the
 * extensions.
 *
 *   pfits_run [flags] NAME...   run the named experiments, in order
 *   pfits_run [flags] --all     run every registered experiment
 *   pfits_run --list            print the registered names
 *
 * Each experiment prints its tables followed by its closing note (for
 * a paper figure, "paper reports: ..." with the paper's numbers;
 * EXPERIMENTS.md records the measured-vs-paper history). Experiments
 * run one after another in this process, and each starts from an empty
 * SimCache, so its output and manifest do not depend on what ran
 * before it.
 *
 * The shared flags apply to every named experiment (anything else is a
 * usage error, exit 2 — a typo like "--cvs" is not a silent no-op):
 *
 *   --csv             emit tables as CSV, suppress the closing note
 *   --jobs N          engine worker count, 0..256 (also --jobs=N,
 *                     -jN, PFITS_JOBS); output is byte-identical at
 *                     any N
 *   --trace-on-trap   arm the bounded flight recorder on every run
 *   --trace-dir DIR   directory trace JSONL files are written to
 *                     (default "."); give concurrent runs distinct
 *                     directories so dumps never interleave
 *   --json DIR        write one pfits-manifest-v1 run manifest per
 *                     experiment, DIR/<tool>.json: build provenance,
 *                     params, simulated content hashes, result tables,
 *                     engine self-metrics, wall/CPU time
 *                     (docs/OBSERVABILITY.md). <tool> is the
 *                     experiment name
 *   --trace-out FILE  write a Chrome trace-event JSON timeline of the
 *                     whole invocation (runner phases, per-worker job
 *                     lanes, SimCache hits/misses, per-tile chip
 *                     quanta); load it in Perfetto or chrome://tracing
 *                     (docs/OBSERVABILITY.md "Tracing")
 *   --daemon[=SOCK]   resolve simulations through a pfitsd daemon
 *                     (docs/SERVICE.md); bare --daemon uses
 *                     $PFITS_DAEMON or "pfitsd.sock". Setting
 *                     PFITS_DAEMON alone also enables it. The daemon
 *                     is an accelerator only: if it is unreachable or
 *                     misbehaves the run silently simulates locally
 *                     (svc.fallbacks counts this) and output is
 *                     byte-identical either way.
 *
 * Exit status: 0 on success, 1 when an experiment failed or an output
 * file could not be written (the remaining experiments still run), 2
 * on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/fileio.hh"
#include "common/logging.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "exp/simservice.hh"
#include "experiments.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/client.hh"

using namespace pfits;

namespace
{

/** The command line: what to run, and the shared flag set. */
struct Options
{
    std::vector<const Experiment *> run;
    bool list = false;

    bool csv = false;
    unsigned jobs = 0; //!< 0 = process default pool

    bool traceOnTrap = false;
    std::string traceDir = ".";
    std::string jsonDir; //!< empty = no manifests

    //!< Chrome trace-event timeline target; empty = tracing disabled
    std::string traceOutPath;

    //!< pfitsd socket to resolve simulations through; empty = local
    std::string daemonSocket;
};

void
printUsage(std::ostream &os)
{
    os << "usage: pfits_run [flags] NAME... | --all | --list\n"
          "  NAME...          run these experiments, in order\n"
          "  --all            run every experiment\n"
          "  --list           print every experiment name and exit\n"
          "flags:\n"
          "  --csv            print tables as CSV\n"
          "  --jobs N         engine worker count, 0..256 (PFITS_JOBS "
          "also works)\n"
          "  --trace-on-trap  dump a bounded event trace on "
          "trap/machine-check\n"
          "  --trace-dir DIR  directory for trace JSONL files "
          "(default .)\n"
          "  --json DIR       write a run manifest per experiment "
          "(pfits-manifest-v1)\n"
          "                   to DIR/<tool>.json\n"
          "  --trace-out FILE write a Chrome trace-event JSON "
          "timeline\n"
          "                   (Perfetto/chrome://tracing loadable)\n"
          "  --daemon[=SOCK]  resolve simulations through a pfitsd "
          "daemon\n"
          "                   (default $PFITS_DAEMON or "
          "pfitsd.sock)\n";
}

/**
 * Parse the command line. Unknown flags, unknown experiment names and
 * malformed values are usage errors: print the usage text and exit 2.
 * "--help" prints it and exits 0.
 */
Options
parseArgs(int argc, char **argv)
{
    auto reject = [](const std::string &why) {
        std::cerr << "pfits_run: " << why << "\n";
        printUsage(std::cerr);
        std::exit(2);
    };
    auto parseCount = [&](std::string_view text) -> unsigned {
        const std::optional<unsigned> v = parseJobCount(text);
        if (!v)
            reject("malformed job count '" + std::string(text) +
                   "' (want 0.." + std::to_string(kMaxJobs) + ")");
        return *v == 0 ? 1u : *v;
    };
    auto wantValue = [&](int &i, std::string_view flag) -> const char * {
        if (i + 1 >= argc)
            reject(std::string(flag) + " wants an argument");
        return argv[++i];
    };

    Options opts;
    bool all = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (arg == "--all") {
            all = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--trace-on-trap") {
            opts.traceOnTrap = true;
        } else if (arg == "--trace-dir") {
            opts.traceDir = wantValue(i, arg);
        } else if (arg.rfind("--trace-dir=", 0) == 0) {
            opts.traceDir = std::string(arg.substr(12));
        } else if (arg == "--json") {
            opts.jsonDir = wantValue(i, arg);
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonDir = std::string(arg.substr(7));
            if (opts.jsonDir.empty())
                reject("--json= wants a directory");
        } else if (arg == "--trace-out") {
            opts.traceOutPath = wantValue(i, arg);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opts.traceOutPath = std::string(arg.substr(12));
            if (opts.traceOutPath.empty())
                reject("--trace-out= wants a file path");
        } else if (arg == "--daemon") {
            const char *env = std::getenv("PFITS_DAEMON");
            opts.daemonSocket = env && *env ? env : "pfitsd.sock";
        } else if (arg.rfind("--daemon=", 0) == 0) {
            opts.daemonSocket = std::string(arg.substr(9));
            if (opts.daemonSocket.empty())
                reject("--daemon= wants a socket path");
        } else if (arg == "--jobs") {
            opts.jobs = parseCount(wantValue(i, arg));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = parseCount(arg.substr(7));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            opts.jobs = parseCount(arg.substr(2));
        } else if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        } else if (arg.rfind("-", 0) == 0) {
            // Name every accepted flag right in the error: the usage
            // block follows, but the one-line message is what scripts
            // capture and what a user pasting an error sees first.
            reject("unknown flag '" + std::string(arg) +
                   "' (accepted: --all --list --csv --jobs "
                   "--trace-on-trap --trace-dir --json --trace-out "
                   "--daemon --help)");
        } else if (const Experiment *e = findExperiment(std::string(arg))) {
            opts.run.push_back(e);
        } else {
            reject("unknown experiment '" + std::string(arg) +
                   "' (see pfits_run --list)");
        }
    }
    if (all) {
        if (!opts.run.empty())
            reject("--all takes no experiment names");
        for (const Experiment &e : experiments())
            opts.run.push_back(&e);
    }
    if (opts.run.empty() && !opts.list)
        reject("no experiment named (give NAME..., --all or --list)");
    if (opts.daemonSocket.empty()) {
        // PFITS_DAEMON alone opts in, so a whole ctest/CI invocation
        // can be pointed at one daemon without touching any command
        // line.
        const char *env = std::getenv("PFITS_DAEMON");
        if (env && *env)
            opts.daemonSocket = env;
    }
    return opts;
}

/** Default ExperimentParams with the shared flags applied. */
ExperimentParams
sharedParams(const Options &opts)
{
    ExperimentParams params;
    params.jobs = opts.jobs;
    if (opts.traceOnTrap) {
        params.observers.traceOnTrap = true;
        params.observers.traceDepth = 64;
        params.observers.traceDir = opts.traceDir;
    }
    return params;
}

ManifestParams
manifestParams(const ExperimentParams &params)
{
    ManifestParams m;
    m.recorded = true;
    m.jobs = params.jobs;
    m.faultSeed = params.faults.enabled() ? params.faults.seed : 0;
    m.faultRetries = params.faultRetries;
    m.intervalInstructions = params.observers.intervalInstructions;
    m.traceDepth = params.observers.traceDepth;
    m.traceOnTrap = params.observers.traceOnTrap;
    m.traceDir = params.observers.traceDir;
    return m;
}

void
printOutput(const Experiment &e, const ExperimentOutput &out, bool csv)
{
    if (!csv && !out.preface.empty())
        std::cout << out.preface << "\n";
    for (size_t i = 0; i < out.tables.size(); ++i) {
        if (i)
            std::cout << "\n";
        if (csv)
            out.tables[i].printCsv(std::cout);
        else
            out.tables[i].print(std::cout);
    }
    if (csv)
        return;
    if (!out.remarks.empty())
        std::cout << "\n" << out.remarks;
    if (e.paper)
        std::cout << "\npaper reports: " << e.paper << "\n";
    else if (e.note)
        std::cout << "\n" << e.note << "\n";
}

/**
 * Per-experiment observability scope. With --json it installs a fresh
 * MetricRegistry for the engine's instrumentation sites; without it
 * the engine sees no registry (the zero-overhead default). With
 * --daemon it installs a SvcClient as the SimService. The destructor
 * restores whatever was installed before.
 */
class ExperimentScope
{
  public:
    explicit ExperimentScope(const Options &opts)
        : manifest_(!opts.jsonDir.empty()), startNs_(monotonicNs()),
          startCpuMs_(processCpuMs())
    {
        if (manifest_)
            prevRegistry_ = MetricRegistry::install(&registry_);
        if (!opts.daemonSocket.empty()) {
            SvcClientConfig cfg = SvcClientConfig::fromEnv();
            cfg.socketPath = opts.daemonSocket;
            client_ = std::make_unique<SvcClient>(cfg);
            prevService_ = installSimService(client_.get());
        }
    }

    ~ExperimentScope() { detach(); }

    ExperimentScope(const ExperimentScope &) = delete;
    ExperimentScope &operator=(const ExperimentScope &) = delete;

    /**
     * Write the manifest @p path for a finished run. @return false
     * (after a warning) when it cannot be written.
     */
    bool
    writeManifest(const std::string &path, RunManifest manifest)
    {
        // Snapshot the daemon's store gauges while our registry is
        // still installed, then detach from the engine.
        if (client_)
            client_->recordServerStats();
        detach();
        manifest.sims = SimCache::instance().keys();
        manifest.metrics = &registry_;
        manifest.wallMs =
            static_cast<double>(monotonicNs() - startNs_) / 1e6;
        manifest.cpuMs = processCpuMs() - startCpuMs_;

        // Atomic publish: a reader (or a crash mid-write) never sees
        // a truncated manifest, only the old file or the new one.
        std::ostringstream os;
        manifest.write(os);
        os << "\n";
        std::string err;
        if (writeFileAtomic(path, os.str(), &err))
            return true;
        warn_once("%s: cannot write manifest '%s': %s",
                  manifest.tool.c_str(), path.c_str(), err.c_str());
        return false;
    }

  private:
    void
    detach()
    {
        if (client_) {
            installSimService(prevService_);
            client_.reset();
        }
        if (manifest_) {
            MetricRegistry::install(prevRegistry_);
            manifest_ = false;
        }
    }

    bool manifest_;
    uint64_t startNs_;
    double startCpuMs_;
    MetricRegistry registry_;
    MetricRegistry *prevRegistry_ = nullptr;
    std::unique_ptr<SvcClient> client_;
    SimService *prevService_ = nullptr;
};

/** Run, print and record one experiment. @return its exit code. */
int
runExperiment(const Experiment &e, const Options &opts)
{
    // A cold start per experiment, as when each was its own process:
    // the manifest's "sims" list is exactly what this experiment ran.
    SimCache::instance().clear();
    const bool was_quiet = quiet();
    int rc = 0;
    try {
        ExperimentScope scope(opts);
        ExperimentParams params = sharedParams(opts);
        ExperimentOutput out = e.run(params);
        printOutput(e, out, opts.csv);
        if (!opts.jsonDir.empty()) {
            RunManifest manifest;
            manifest.tool = e.name;
            manifest.note = e.paper ? e.paper : "";
            manifest.params = manifestParams(params);
            for (const Table &t : out.tables)
                manifest.tables.push_back(&t);
            std::string path = opts.jsonDir + "/" + manifest.tool + ".json";
            if (!scope.writeManifest(path, std::move(manifest)))
                rc = 1;
        }
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "error: %s: %s\n", e.name, ex.what());
        rc = 1;
    }
    setQuiet(was_quiet); // an experiment may silence warnings
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (opts.list) {
        for (const Experiment &e : experiments())
            std::cout << e.name << "\n";
        return 0;
    }
    if (!opts.jsonDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.jsonDir, ec);
    }

    std::unique_ptr<TraceRecorder> recorder;
    if (!opts.traceOutPath.empty()) {
        recorder = std::make_unique<TraceRecorder>();
        TraceRecorder::install(recorder.get());
        recorder->nameThisThread("main");
    }

    int rc = 0;
    for (size_t i = 0; i < opts.run.size(); ++i) {
        if (i)
            std::cout << "\n"; // a blank line between experiments
        rc |= runExperiment(*opts.run[i], opts);
    }

    if (recorder) {
        // Quiesce-then-flush: detach the recorder before writing so a
        // straggling pool worker can never append mid-merge. (The
        // Runners are done, so the pool is idle.)
        TraceRecorder::install(nullptr);
        std::string err;
        if (!recorder->writeFile(opts.traceOutPath, &err)) {
            warn_once("pfits_run: cannot write trace '%s': %s",
                      opts.traceOutPath.c_str(), err.c_str());
            rc = 1;
        }
    }
    return rc;
}
