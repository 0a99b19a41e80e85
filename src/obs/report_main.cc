/**
 * @file
 * pfits_report — aggregate per-bench run manifests into a suite file,
 * validate documents against the schema, and diff two suites for CI
 * regression gating. See docs/OBSERVABILITY.md ("Regression tracking").
 *
 * Exit codes: 0 clean, 1 regression found / document invalid,
 * 2 usage or I/O error.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fileio.hh"
#include "common/frame.hh"
#include "common/logging.hh"
#include "obs/manifest.hh"
#include "obs/report.hh"

namespace fs = std::filesystem;

namespace
{

int
usage(std::ostream &os)
{
    os << "usage: pfits_report <command> [args]\n"
          "\n"
          "commands:\n"
          "  aggregate <dir> [-o <out.json>]\n"
          "      read every *.json manifest under <dir> and write one\n"
          "      pfits-suite-v1 document (stdout unless -o is given)\n"
          "  validate <file.json>\n"
          "      schema-check a manifest or suite document\n"
          "  diff <baseline.json> <new.json> [--tol X] [--time-tol X]\n"
          "       [--time-floor-ms X] [--ignore-time]\n"
          "       [--ignore-metrics]\n"
          "      compare two suite files; exit 1 on value drift,\n"
          "      shape changes, metric-key changes, or wall-time\n"
          "      regressions\n"
          "  validate-trace <trace.json>\n"
          "      structural check of a --trace-out Chrome trace-event\n"
          "      file: well-formed events, balanced B/E per track\n"
          "  stats --daemon=SOCK\n"
          "      query a live pfitsd for its store/metrics snapshot\n"
          "      and print the response document\n";
    return 2;
}

int
cmdAggregate(const std::vector<std::string> &args)
{
    std::string dir, out;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o" || args[i] == "--output") {
            if (++i >= args.size())
                return usage(std::cerr);
            out = args[i];
        } else if (dir.empty()) {
            dir = args[i];
        } else {
            return usage(std::cerr);
        }
    }
    if (dir.empty())
        return usage(std::cerr);

    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    if (ec) {
        std::cerr << "pfits_report: cannot read directory '" << dir
                  << "': " << ec.message() << "\n";
        return 2;
    }
    // Deterministic input order regardless of readdir order.
    std::sort(paths.begin(), paths.end());

    std::vector<pfits::JsonValue> manifests;
    for (const std::string &path : paths) {
        pfits::JsonValue doc;
        try {
            doc = pfits::JsonValue::parseFile(path);
        } catch (const pfits::FatalError &err) {
            std::cerr << "pfits_report: " << path << ": " << err.what()
                      << "\n";
            return 2;
        }
        const pfits::JsonValue &schema = doc.get("schema");
        if (!schema.isString() ||
            schema.asString() != pfits::kManifestSchema) {
            // Skip suite files and unrelated JSON living in the same
            // directory (e.g. a previous aggregate output).
            continue;
        }
        std::string err = pfits::validateDocument(doc);
        if (!err.empty()) {
            std::cerr << "pfits_report: " << path << ": invalid manifest: "
                      << err << "\n";
            return 1;
        }
        manifests.push_back(std::move(doc));
    }
    if (manifests.empty()) {
        std::cerr << "pfits_report: no manifests found under '" << dir
                  << "'\n";
        return 2;
    }

    pfits::JsonValue suite = pfits::aggregateManifests(manifests);
    if (out.empty()) {
        pfits::writeJsonDocument(std::cout, suite);
        std::cout << "\n";
    } else {
        // Atomic publish so a concurrent reader (or a crash) never
        // sees a half-written suite file.
        std::ostringstream os;
        pfits::writeJsonDocument(os, suite);
        os << "\n";
        std::string err;
        if (!pfits::writeFileAtomic(out, os.str(), &err)) {
            std::cerr << "pfits_report: cannot write '" << out
                      << "': " << err << "\n";
            return 2;
        }
        std::cerr << "pfits_report: aggregated " << manifests.size()
                  << " manifest(s) into " << out << "\n";
    }
    return 0;
}

int
cmdValidate(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(std::cerr);
    pfits::JsonValue doc;
    try {
        doc = pfits::JsonValue::parseFile(args[0]);
    } catch (const pfits::FatalError &err) {
        std::cerr << "pfits_report: " << args[0] << ": " << err.what()
                  << "\n";
        return 2;
    }
    std::string err = pfits::validateDocument(doc);
    if (!err.empty()) {
        std::cerr << args[0] << ": INVALID: " << err << "\n";
        return 1;
    }
    std::cout << args[0] << ": OK ("
              << doc.get("schema").asString() << ")\n";
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    pfits::DiffOptions options;
    std::vector<std::string> files;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--tol" || a == "--time-tol" || a == "--time-floor-ms") {
            if (++i >= args.size())
                return usage(std::cerr);
            double v = std::atof(args[i].c_str());
            if (a == "--tol")
                options.valueTol = v;
            else if (a == "--time-tol")
                options.timeTol = v;
            else
                options.timeFloorMs = v;
        } else if (a == "--ignore-time") {
            options.ignoreTime = true;
        } else if (a == "--ignore-metrics") {
            options.ignoreMetrics = true;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "pfits_report: unknown flag '" << a << "'\n";
            return usage(std::cerr);
        } else {
            files.push_back(a);
        }
    }
    if (files.size() != 2)
        return usage(std::cerr);

    pfits::JsonValue base, fresh;
    try {
        base = pfits::JsonValue::parseFile(files[0]);
        fresh = pfits::JsonValue::parseFile(files[1]);
    } catch (const pfits::FatalError &err) {
        std::cerr << "pfits_report: " << err.what() << "\n";
        return 2;
    }
    for (const auto *doc : {&base, &fresh}) {
        std::string err = pfits::validateDocument(*doc);
        if (!err.empty()) {
            std::cerr << "pfits_report: invalid suite document: " << err
                      << "\n";
            return 2;
        }
        if (doc->get("schema").asString() != pfits::kSuiteSchema) {
            std::cerr << "pfits_report: diff wants " << pfits::kSuiteSchema
                      << " documents (aggregate first)\n";
            return 2;
        }
    }

    pfits::DiffResult result = pfits::diffSuites(base, fresh, options);
    std::cout << "diff " << files[0] << " -> " << files[1] << "\n";
    pfits::printDiffReport(std::cout, result, options);
    return result.regression() ? 1 : 0;
}

int
cmdValidateTrace(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(std::cerr);
    const std::string &path = args[0];
    pfits::JsonValue doc;
    try {
        // Its own cap: a traced chip sweep records every quantum and
        // coherence event and legitimately runs to hundreds of MiB.
        doc = pfits::JsonValue::parseFile(path, size_t{1} << 30);
    } catch (const pfits::FatalError &err) {
        std::cerr << "pfits_report: " << path << ": " << err.what()
                  << "\n";
        return 2;
    }

    auto invalid = [&](const std::string &why) {
        std::cerr << path << ": INVALID: " << why << "\n";
        return 1;
    };

    if (!doc.isObject() || !doc.get("traceEvents").isArray())
        return invalid("missing array 'traceEvents'");
    const auto &events = doc.get("traceEvents").asArray();
    if (events.empty())
        return invalid("empty trace (no events recorded)");

    // Per-tid open-span depth: every "E" must close an earlier "B" on
    // the same track, and every track must end closed. Timestamps must
    // be non-decreasing — the recorder sorts at flush, so disorder
    // here means a merge bug, not clock noise.
    std::map<double, int> depth; // tid -> open spans
    size_t tracks = 0;
    double last_ts = -1;
    for (size_t i = 0; i < events.size(); ++i) {
        const pfits::JsonValue &e = events[i];
        std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject() || !e.get("ph").isString())
            return invalid(where + ": missing string 'ph'");
        const std::string &ph = e.get("ph").asString();
        if (!e.get("pid").isNumber() || !e.get("tid").isNumber())
            return invalid(where + ": missing numeric pid/tid");
        double tid = e.get("tid").asNumber();
        if (ph == "M") {
            if (!e.get("name").isString() ||
                e.get("name").asString() != "thread_name" ||
                !e.get("args").isObject() ||
                !e.get("args").get("name").isString())
                return invalid(where + ": malformed thread_name record");
            ++tracks;
            continue;
        }
        if (ph != "B" && ph != "E" && ph != "i")
            return invalid(where + ": unexpected phase '" + ph + "'");
        if (!e.get("ts").isNumber() || e.get("ts").asNumber() < 0)
            return invalid(where + ": missing non-negative 'ts'");
        double ts = e.get("ts").asNumber();
        if (ts < last_ts)
            return invalid(where + ": timestamps out of order");
        last_ts = ts;
        if (ph == "B") {
            if (!e.get("name").isString())
                return invalid(where + ": B event without a name");
            ++depth[tid];
        } else if (ph == "E") {
            if (depth[tid] <= 0)
                return invalid(where + ": E without a matching B on tid " +
                               std::to_string(static_cast<long>(tid)));
            --depth[tid];
        } else {
            if (!e.get("name").isString())
                return invalid(where + ": instant without a name");
            if (!e.get("s").isString())
                return invalid(where + ": instant without a scope");
        }
    }
    for (const auto &[tid, d] : depth)
        if (d != 0)
            return invalid("track " +
                           std::to_string(static_cast<long>(tid)) +
                           " ends with " + std::to_string(d) +
                           " unclosed span(s)");

    std::cout << path << ": OK (" << events.size() << " events, "
              << tracks << " named tracks)\n";
    return 0;
}

/**
 * The bound on one `stats` exchange. A daemon answers stats from
 * memory, so one that has not answered by then is wedged; report that
 * instead of blocking forever.
 */
constexpr int kStatsDeadlineMs = 10'000;

/**
 * One pfits-svc-v1 round trip for the `stats` query: a frame out, a
 * frame back (common/frame.hh), both under kStatsDeadlineMs.
 */
bool
statsRoundTrip(const std::string &socket_path, const std::string &request,
               std::string *response, std::string *err)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        *err = "socket path too long";
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        *err = socket_path + ": " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    const bool ok =
        pfits::sendFrame(fd, request, kStatsDeadlineMs, err) &&
        pfits::recvFrame(fd, response, kStatsDeadlineMs, err);
    ::close(fd);
    return ok;
}

int
cmdStats(const std::vector<std::string> &args)
{
    std::string socket_path;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--daemon") {
            if (++i >= args.size())
                return usage(std::cerr);
            socket_path = args[i];
        } else if (a.rfind("--daemon=", 0) == 0) {
            socket_path = a.substr(9);
        } else {
            return usage(std::cerr);
        }
    }
    if (socket_path.empty())
        return usage(std::cerr);

    // The wire schema tag lives in svc/proto.hh, which pfits_report
    // does not link; the literal is part of the documented protocol.
    std::string request = "{\"schema\":\"pfits-svc-v1\",\"op\":\"stats\"}";

    std::string response, err;
    if (!statsRoundTrip(socket_path, request, &response, &err)) {
        std::cerr << "pfits_report: stats: " << err << "\n";
        return 2;
    }

    pfits::JsonValue doc;
    try {
        doc = pfits::JsonValue::parse(response);
    } catch (const pfits::FatalError &e) {
        std::cerr << "pfits_report: stats: bad response: " << e.what()
                  << "\n";
        return 2;
    }
    pfits::writeJsonDocument(std::cout, doc);
    std::cout << "\n";
    return doc.get("ok").isBool() && doc.get("ok").asBool() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr);
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "aggregate")
        return cmdAggregate(args);
    if (cmd == "validate")
        return cmdValidate(args);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "validate-trace")
        return cmdValidateTrace(args);
    if (cmd == "stats")
        return cmdStats(args);
    if (cmd == "-h" || cmd == "--help" || cmd == "help")
        return usage(std::cout), 0;
    std::cerr << "pfits_report: unknown command '" << cmd << "'\n";
    return usage(std::cerr);
}
