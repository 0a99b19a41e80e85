/**
 * @file
 * pfits_verify — the differential verification driver check.sh runs.
 *
 *   pfits_verify [--seed N] [--count N] [--jobs N]
 *                [--chip-count N] [--chip-tiles N]
 *                [--no-kernels] [--no-timing] [--no-random]
 *
 * Runs the differential suite (21 MiBench kernels + N seeded random
 * programs across golden/arm32/packed/fits16; every timing config runs
 * on the engine and on the interpreter oracle — checked, bare and as
 * a one-tile Chip — and must agree field for field) and the
 * timing-invariant sweep (21 benchmarks x the paper's 4 configs, on
 * engine and oracle).
 * --chip-count N > 0 additionally runs the multi-tile chip sweep
 * (runChipDifferentialSuite): kernels + N random programs, each run
 * as every tile of a --chip-tiles-tile chip (default 4) over a small
 * shared MSI L2 at the round-robin quanta 7, 1009 and 10 000, checked
 * field for field against the same chip on oracle tiles, for per-tile
 * architectural equality against an independent single-core run, and
 * for the coherence invariants.
 * The base seed also comes from PFITS_VERIFY_SEED, the worker count
 * from --jobs / PFITS_JOBS. On a mismatch the failing program's seed
 * and disassembly are printed so the case replays with
 * `pfits_verify --seed <seed> --count 1 --no-kernels --no-timing`.
 * Exit status: 0 all checks passed, 1 otherwise.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "common/logging.hh"
#include "exp/parallel.hh"
#include "verify/differential.hh"
#include "verify/randprog.hh"

namespace
{

uint64_t
parseU64(const char *text, const char *flag)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!end || *end != '\0') {
        std::cerr << "pfits_verify: bad value for " << flag << ": '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

/** A --jobs / -j value: 0..kMaxJobs (0 reads as 1), else exit 2. */
unsigned
parseJobs(std::string_view text)
{
    const std::optional<unsigned> v = pfits::parseJobCount(text);
    if (!v) {
        std::cerr << "pfits_verify: malformed job count '" << text
                  << "' (want 0.." << pfits::kMaxJobs << ")\n";
        std::exit(2);
    }
    return *v == 0 ? 1u : *v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pfits;

    DiffOptions opts;
    unsigned chip_count = 0;
    unsigned chip_tiles = 4;
    bool run_random = true;
    bool run_timing = true;

    if (const char *env = std::getenv("PFITS_VERIFY_SEED"))
        opts.seed = parseU64(env, "PFITS_VERIFY_SEED");

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "pfits_verify: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(arg, "--seed")) {
            opts.seed = parseU64(value(), "--seed");
        } else if (!std::strcmp(arg, "--count")) {
            opts.count =
                static_cast<unsigned>(parseU64(value(), "--count"));
        } else if (!std::strcmp(arg, "--jobs")) {
            opts.jobs = parseJobs(value());
        } else if (!std::strncmp(arg, "--jobs=", 7)) {
            opts.jobs = parseJobs(arg + 7);
        } else if (!std::strncmp(arg, "-j", 2) && arg[2] != '\0') {
            opts.jobs = parseJobs(arg + 2);
        } else if (!std::strcmp(arg, "--chip-count")) {
            chip_count = static_cast<unsigned>(
                parseU64(value(), "--chip-count"));
        } else if (!std::strcmp(arg, "--chip-tiles")) {
            chip_tiles = static_cast<unsigned>(
                parseU64(value(), "--chip-tiles"));
            if (chip_tiles < 2 || chip_tiles > 64) {
                std::cerr << "pfits_verify: --chip-tiles wants "
                             "2..64\n";
                return 2;
            }
        } else if (!std::strcmp(arg, "--no-kernels")) {
            opts.kernels = false;
        } else if (!std::strcmp(arg, "--no-random")) {
            run_random = false;
        } else if (!std::strcmp(arg, "--no-timing")) {
            run_timing = false;
        } else if (!std::strcmp(arg, "--help")) {
            std::cout
                << "usage: pfits_verify [--seed N] [--count N] "
                   "[--jobs N] [--chip-count N] [--chip-tiles N] "
                   "[--no-kernels] [--no-random] [--no-timing]\n";
            return 0;
        } else {
            std::cerr << "pfits_verify: unknown flag '" << arg
                      << "'\n";
            return 2;
        }
    }
    if (!run_random)
        opts.count = 0;

    int rc = 0;
    try {
        DiffSummary diff = runDifferentialSuite(opts, &std::cout);
        if (!diff.ok()) {
            rc = 1;
            // Replay aid: the full listing of every failing random
            // program (kernel listings run to pages; the name is
            // enough to rebuild those).
            for (const DiffReport &rep : diff.failed) {
                if (rep.seed == 0)
                    continue;
                std::cout << "--- disassembly of " << rep.program
                          << " (seed " << rep.seed << ") ---\n"
                          << randomVerifyProgram(rep.seed).listing();
            }
        }

        if (run_timing) {
            auto fails = runTimingInvariantSweep(opts.jobs, &std::cout);
            if (!fails.empty())
                rc = 1;
        }

        if (chip_count > 0) {
            ChipDiffOptions chip_opts;
            chip_opts.seed = opts.seed;
            chip_opts.count = chip_count;
            chip_opts.tiles = chip_tiles;
            chip_opts.jobs = opts.jobs;
            chip_opts.kernels = opts.kernels;
            DiffSummary chip =
                runChipDifferentialSuite(chip_opts, &std::cout);
            if (!chip.ok()) {
                rc = 1;
                for (const DiffReport &rep : chip.failed) {
                    if (rep.seed == 0)
                        continue;
                    std::cout
                        << "--- disassembly of " << rep.program
                        << " (seed " << rep.seed << ") ---\n"
                        << randomVerifyProgram(rep.seed).listing();
                }
            }
        }
    } catch (const FatalError &e) {
        std::cerr << "pfits_verify: fatal: " << e.what() << "\n";
        return 1;
    }

    std::cout << (rc == 0 ? "pfits_verify: OK\n"
                          : "pfits_verify: FAILED\n");
    return rc;
}
