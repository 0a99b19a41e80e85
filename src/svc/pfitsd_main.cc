/**
 * @file
 * pfitsd — the PowerFITS simulation daemon.
 *
 * Serves content-addressed simulation results over a Unix-domain
 * socket, backed by a crash-safe on-disk store, so a fleet of bench
 * processes (or repeated sweeps) share one simulation of each
 * (program, config, faults, observers) point. The daemon only stores:
 * a client that misses simulates the point itself under a lease and
 * puts it back. See docs/SERVICE.md.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "exp/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/server.hh"

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop = true;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --socket PATH           listen socket "
        "(default pfitsd.sock)\n"
        "  --store DIR             result store directory "
        "(default pfitsd-store)\n"
        "  --max-store-bytes N     LRU eviction budget "
        "(default 0 = unbounded)\n"
        "  --jobs N                accepted (1..256) for older "
        "scripts; no effect, clients compute\n"
        "  --lease-ttl-ms N        client compute-lease TTL "
        "(default 30000)\n"
        "  --default-deadline-ms N per-request deadline when the "
        "client sends none (default 60000)\n"
        "  --trace-out FILE        write a Chrome trace-event JSON "
        "timeline of the daemon's request/lease/store activity at "
        "shutdown (Perfetto-loadable; docs/OBSERVABILITY.md)\n",
        argv0);
}

using pfits::parseU64;

constexpr uint64_t kIntMax = std::numeric_limits<int>::max();

} // namespace

int
main(int argc, char **argv)
{
    pfits::SvcServerConfig cfg;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        uint64_t v = 0;
        if (arg == "--socket") {
            cfg.socketPath = next("--socket");
        } else if (arg == "--store") {
            cfg.storeDir = next("--store");
        } else if (arg == "--max-store-bytes") {
            if (!parseU64(next("--max-store-bytes"), &v)) {
                usage(argv[0]);
                return 2;
            }
            cfg.storeMaxBytes = v;
        } else if (arg == "--jobs") {
            // Validated, then ignored: the daemon runs no simulations.
            const std::optional<unsigned> jobs =
                pfits::parseJobCount(next("--jobs"));
            if (!jobs || *jobs == 0) {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--lease-ttl-ms") {
            if (!parseU64(next("--lease-ttl-ms"), &v, kIntMax) || v == 0) {
                usage(argv[0]);
                return 2;
            }
            cfg.leaseTtlMs = static_cast<int>(v);
        } else if (arg == "--default-deadline-ms") {
            if (!parseU64(next("--default-deadline-ms"), &v, kIntMax) ||
                v == 0) {
                usage(argv[0]);
                return 2;
            }
            cfg.defaultDeadlineMs = static_cast<int>(v);
        } else if (arg == "--trace-out") {
            trace_out = next("--trace-out");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
            if (trace_out.empty()) {
                std::fprintf(stderr,
                             "--trace-out= wants a file path\n");
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    // The daemon always runs with a metric registry so the `stats`
    // wire op can answer with live engine metrics; the trace recorder
    // is installed only for --trace-out runs and flushed at shutdown,
    // after server.stop() has joined every recording thread.
    pfits::MetricRegistry metrics;
    pfits::MetricRegistry::install(&metrics);
    std::unique_ptr<pfits::TraceRecorder> recorder;
    if (!trace_out.empty()) {
        recorder = std::make_unique<pfits::TraceRecorder>();
        pfits::TraceRecorder::install(recorder.get());
    }

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    pfits::SvcServer server(cfg);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "pfitsd: %s\n", err.c_str());
        return 1;
    }

    // The readiness line scripts wait for before launching clients.
    std::printf("pfitsd: listening on %s (store %s)\n",
                cfg.socketPath.c_str(), cfg.storeDir.c_str());
    std::fflush(stdout);

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();

    int rc = 0;
    if (recorder) {
        pfits::TraceRecorder::install(nullptr);
        std::string terr;
        if (!recorder->writeFile(trace_out, &terr)) {
            warn_once("pfitsd: cannot write trace '%s': %s",
                      trace_out.c_str(), terr.c_str());
            rc = 1;
        }
    }
    pfits::MetricRegistry::install(nullptr);

    std::printf("pfitsd: stopped\n");
    return rc;
}
