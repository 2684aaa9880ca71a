/**
 * @file
 * paper-sweep: what `tlat compare` does without a trace cache. Set-up
 * generates the nine mirrors' test and training traces cold; the
 * timed phase runs harness::runSweep at jobs = nproc over a fixed
 * grid that reaches every predictor engine and drive path.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "core/scheme_config.hh"
#include "harness/parallel_sweep.hh"
#include "harness/suite.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace tlat;

// The scheme grammar has no PAg/GAg spelling, so GSH is the grid's
// generalized-taxonomy scheme: it is GAg+xor on the same
// GeneralizedTwoLevelPredictor engine.
const std::vector<std::string> kGrid = {
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "AT(IHRT(,12SR),PT(2^12,A2),)",
    "AT(HHRT(512,12SR),PT(2^12,A2),)",
    "GSH(12,A2)",
    "LS(AHRT(512,A2),,)",
    "LS(AHRT(512,LT),,)",
    "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),CT(2^12))",
    "ST(AHRT(512,12SR),PT(2^12,PB),Diff)",
    "Profile",
    "BTFN",
};

/**
 * Consecutive sweeps per latency window. The run reports the median
 * of the windows' percentiles, so a burst of host noise moves one
 * window's tail rather than the run's.
 */
constexpr std::size_t kSweepsPerWindow = 20;

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupRepeats = 15;

/** `tlat compare`'s title, so its output is the expected table. */
constexpr const char *kTitle = "prediction accuracy (percent)";

std::string
tableText(const harness::AccuracyReport &report)
{
    std::ostringstream os;
    report.print(os);
    return os.str();
}

/**
 * The committed table for this budget: byte-identical to
 * `tlat compare --budget <budget> <grid...>`.
 */
std::string
expectedTable(const RunOptions &options)
{
    const std::string path = options.expectedDir + "/paper_sweep_" +
                             std::to_string(options.size.sweepBudget) +
                             ".txt";
    std::string text = readFile(path);
    if (text.empty()) {
        std::cerr << "perfbench: missing expected table " << path
                  << "\n";
        std::exit(1);
    }
    return text;
}

/** Conditional branches one sweep simulates, summed over cells. */
std::uint64_t
branchesPerSweep(harness::BenchmarkSuite &suite)
{
    std::uint64_t branches = 0;
    for (const std::string &scheme : kGrid) {
        const bool diff = core::SchemeConfig::parse(scheme)->data ==
                          core::DataMode::Diff;
        for (const std::string &benchmark : suite.benchmarks()) {
            if (diff && !suite.trainTrace(benchmark))
                continue;
            branches += suite.testTrace(benchmark).conditionalCount();
        }
    }
    return branches;
}

/** A cold suite with every test and training trace generated. */
std::unique_ptr<harness::BenchmarkSuite>
preloadedSuite(const RunOptions &options, unsigned jobs)
{
    auto suite = std::make_unique<harness::BenchmarkSuite>(
        options.size.sweepBudget);
    util::ThreadPool pool(jobs);
    suite->preload(pool, true);
    return suite;
}

} // namespace

void
runPaperSweep(const RunOptions &options, Result &result)
{
    const unsigned jobs = availableCpus();
    const std::string expected = expectedTable(options);

    std::unique_ptr<harness::BenchmarkSuite> suite;
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        suite.reset();
        const double start = nowSeconds();
        suite = preloadedSuite(options, jobs);
        setup.push_back(nowSeconds() - start);
    }
    const double branches =
        static_cast<double>(branchesPerSweep(*suite));

    std::vector<double> rates;
    std::vector<double> latencies;
    const double deadline = nowSeconds() + options.seconds;
    do {
        const double start = nowSeconds();
        const harness::AccuracyReport report =
            harness::runSweep(*suite, kTitle, kGrid, {}, jobs);
        const double seconds = nowSeconds() - start;
        rates.push_back(branches / seconds);
        latencies.push_back(seconds * 1e6);
        result.check(tableText(report) == expected,
                     "paper-sweep accuracy table differs from the "
                     "expected table");
    } while (nowSeconds() < deadline);

    result.metric("setup_s", median(setup), "s");
    result.metric("peak_rss_mib", peakRssMib(), "MiB");
    result.metric("records_per_s", median(rates), "1/s");
    // A short last window joins the one before it.
    std::vector<double> p50;
    std::vector<double> p90;
    const std::size_t windows =
        std::max<std::size_t>(1, latencies.size() / kSweepsPerWindow);
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first = latencies.begin() + w * kSweepsPerWindow;
        const auto last = w + 1 == windows ? latencies.end()
                                           : first + kSweepsPerWindow;
        const std::vector<double> window(first, last);
        p50.push_back(quantile(window, 0.50));
        p90.push_back(quantile(window, 0.90));
    }
    result.metric("p50_us", median(p50), "us");
    result.metric("p90_us", median(p90), "us");
    std::cout << "{\"detail\": {\"workload\": \"paper-sweep\", "
                 "\"latency_samples\": "
              << latencies.size()
              << ", \"latency_windows\": " << p50.size()
              << ", \"p99_us\": " << quantile(latencies, 0.99)
              << ", \"branches_per_sweep\": "
              << static_cast<std::uint64_t>(branches)
              << ", \"jobs\": " << jobs << "}}\n";
}

namespace
{

struct SimTotals
{
    double instructions = 0.0;
    double conditionals = 0.0;
};

/**
 * One serial pass of the sweep, decomposed into the library calls a
 * sweep makes, each inside a span of its layer: trace generation
 * (sim), predecode (trace), one cold predictor per cell (core) and
 * the report merge and render (harness). Serial, so the layers' self
 * times add up to the pass; the parallel fan-out is measured apart
 * (harness.sweep_parallel_eff).
 */
void
decomposedPass(const RunOptions &options, Tracer &tracer,
               Result &result, const std::string &expected,
               SimTotals &totals)
{
    const Tracer::Scope root(tracer, "paper-sweep");
    const std::vector<std::string> benchmarks =
        workloads::workloadNames();
    std::map<std::string, trace::TraceBuffer> test;
    std::map<std::string, trace::TraceBuffer> train;
    for (const std::string &benchmark : benchmarks) {
        const auto workload = workloads::makeWorkload(benchmark);
        std::vector<std::pair<std::string, bool>> sets{
            {workload->testSet(), true}};
        if (const auto set = workload->trainSet())
            sets.emplace_back(*set, false);
        for (const auto &[set, is_test] : sets) {
            trace::TraceBuffer buffer;
            {
                const Tracer::Scope span(tracer, "sim.collect_trace");
                buffer = sim::collectTrace(workload->build(set),
                                           options.size.sweepBudget);
            }
            {
                const Tracer::Scope span(tracer, "trace.predecode");
                buffer.predecoded();
            }
            totals.instructions +=
                static_cast<double>(buffer.mix().total());
            totals.conditionals +=
                static_cast<double>(buffer.conditionalCount());
            buffer.setName(benchmark);
            (is_test ? test : train)
                .emplace(benchmark, std::move(buffer));
        }
    }

    harness::AccuracyReport report(
        kTitle, benchmarks, workloads::floatingPointWorkloadNames());
    for (const std::string &scheme : kGrid) {
        const auto config = *core::SchemeConfig::parse(scheme);
        for (const std::string &benchmark : benchmarks) {
            const trace::TraceBuffer &test_trace = test.at(benchmark);
            const trace::TraceBuffer *train_trace = &test_trace;
            if (config.data == core::DataMode::Diff) {
                const auto it = train.find(benchmark);
                if (it == train.end())
                    continue;
                train_trace = &it->second;
            }
            AccuracyCounter accuracy;
            {
                const Tracer::Scope span(tracer, "core.cell");
                const auto predictor =
                    predictors::makePredictor(config);
                predictor->reset();
                if (predictor->needsTraining())
                    predictor->train(*train_trace);
                predictor->simulateBatch(test_trace.predecodedView(),
                                         accuracy);
            }
            const Tracer::Scope span(tracer, "harness.report");
            report.add(benchmark, scheme, accuracy.accuracyPercent());
        }
    }
    std::string table;
    {
        const Tracer::Scope span(tracer, "harness.report");
        table = tableText(report);
    }
    result.check(table == expected,
                 "decomposed paper-sweep table differs from the "
                 "expected table");
}

} // namespace

void
ladderPaperSweep(const RunOptions &options, Result &result,
                 Tracer &tracer)
{
    const unsigned jobs = availableCpus();
    const std::string expected = expectedTable(options);
    const int repeats = ladderRepeats(options);

    SimTotals totals;
    std::vector<double> untraced;
    Tracer off(false);
    alternate(
        repeats,
        [&] {
            SimTotals ignored;
            const double start = nowSeconds();
            decomposedPass(options, off, result, expected, ignored);
            untraced.push_back(nowSeconds() - start);
        },
        [&] { decomposedPass(options, tracer, result, expected, totals); });
    reportLadder(result, tracer, "paper-sweep",
                 {"sim", "trace", "core", "harness"}, untraced);

    const double sim_seconds = tracer.total("sim.collect_trace");
    result.metric("sim.instr_per_s", totals.instructions / sim_seconds,
                  "1/s");
    result.metric("sim.cond_branches_per_s",
                  totals.conditionals / sim_seconds, "1/s");
    result.metric("trace.predecode_ns_per_branch",
                  tracer.total("trace.predecode") /
                      totals.conditionals * 1e9,
                  "ns");

    // The harness entry points as the e2e run calls them.
    std::vector<double> preload;
    std::vector<double> jobs1;
    std::vector<double> jobsn;
    std::unique_ptr<harness::BenchmarkSuite> suite;
    for (int i = 0; i < repeats; ++i) {
        suite.reset();
        const double start = nowSeconds();
        suite = preloadedSuite(options, jobs);
        preload.push_back(nowSeconds() - start);
        for (const unsigned n : {1u, jobs}) {
            const double sweep_start = nowSeconds();
            const harness::AccuracyReport report =
                harness::runSweep(*suite, kTitle, kGrid, {}, n);
            (n == 1 ? jobs1 : jobsn)
                .push_back(nowSeconds() - sweep_start);
            result.check(tableText(report) == expected,
                         "paper-sweep table differs at jobs " +
                             std::to_string(n));
        }
    }
    result.metric("harness.preload_s", median(preload), "s");
    result.metric("harness.sweep_jobs1_s", median(jobs1), "s");
    result.metric("harness.sweep_parallel_eff",
                  median(jobs1) / (median(jobsn) * jobs), "ratio");
}

} // namespace perfbench
