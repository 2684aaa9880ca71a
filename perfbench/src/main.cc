/**
 * @file
 * perfbench: the repository benchmark. perfbench/run.py builds this
 * binary and runs it; see perfbench/README.md for the workloads and
 * the metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR --expected-dir DIR [--size full|tiny]
 *
 * --trace 0 runs the named workload untraced and reports the
 * end-to-end metrics. --trace 1 runs the whole per-layer ladder: every
 * workload's span ladder plus the isolated layer timings, so every
 * traced run reports every per-layer metric. The last line of stdout
 * is the result object.
 */

#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "common.hh"
#include "util/string_utils.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage()
{
    std::cerr << "usage: perfbench --workload "
                 "paper-sweep|serve-tenants|trace-stream --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "--expected-dir DIR [--size full|tiny]\n";
    return 2;
}

std::optional<RunOptions>
parseArgs(int argc, char **argv)
{
    RunOptions options;
    options.size = sizeNamed("full");
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const auto seed = tlat::parseSize(value);
            if (!seed)
                return std::nullopt;
            options.seed = *seed;
            have_seed = true;
        } else if (flag == "--seconds") {
            const auto seconds = tlat::parseSize(value);
            if (!seconds || *seconds == 0)
                return std::nullopt;
            options.seconds = static_cast<double>(*seconds);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return std::nullopt;
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--size") {
            options.size = sizeNamed(value);
            if (options.size.name.empty())
                return std::nullopt;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--expected-dir") {
            options.expectedDir = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
        options.workDir.empty() || options.expectedDir.empty())
        return std::nullopt;
    if (options.workload != "paper-sweep" &&
        options.workload != "serve-tenants" &&
        options.workload != "trace-stream")
        return std::nullopt;
    return options;
}

void
runTraced(const RunOptions &options, Result &result)
{
    Tracer tracer(true);
    ladderCore(options, result);
    ladderPaperSweep(options, result, tracer);
    ladderServeTenants(options, result, tracer);
    ladderTraceStream(options, result, tracer);
    const std::string spans = options.workDir + "/spans-" +
                              options.workload + "-seed" +
                              std::to_string(options.seed) + ".jsonl";
    if (!tracer.writeChromeTrace(spans))
        std::cerr << "perfbench: cannot write " << spans << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = parseArgs(argc, argv);
    if (!options)
        return usage();
    // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic,
    // it rises after the first large free, and memory freed by one
    // set-up repeat then lingers in whichever thread's arena it came
    // from: peak RSS varied by +-5% between identical runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    // The library's tuning knobs would change what is measured.
    for (const char *knob : {"TLAT_TRACE_CACHE_DIR", "TLAT_CHUNK_RECORDS",
                             "TLAT_JOBS", "TLAT_BRANCH_BUDGET",
                             "TLAT_DISABLE_SIMD"})
        unsetenv(knob);
    try {
        std::filesystem::create_directories(options->workDir);
        printFingerprint(*options);
        Result result;
        if (options->trace) {
            runTraced(*options, result);
        } else if (options->workload == "paper-sweep") {
            runPaperSweep(*options, result);
        } else if (options->workload == "serve-tenants") {
            runServeTenants(*options, result);
        } else {
            runTraceStream(*options, result);
        }
        result.print();
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
