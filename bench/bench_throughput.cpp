/**
 * @file
 * google-benchmark microbenchmarks: predict+update throughput of
 * every predictor family on a pre-generated gcc trace, plus the
 * simulator's raw trace-generation rate. Not a paper artifact — a
 * software performance check for the library itself.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <vector>

#include "bench_common.hh"
#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "trace/predecode.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

const trace::TraceBuffer &
gccTrace()
{
    static const trace::TraceBuffer trace = [] {
        const auto workload = workloads::makeWorkload("gcc");
        return sim::collectTrace(workload->buildTest(), 100000);
    }();
    return trace;
}

void
runPredictorLoop(benchmark::State &state, const std::string &scheme)
{
    const trace::TraceBuffer &trace = gccTrace();
    const auto predictor = predictors::makePredictor(scheme);
    if (predictor->needsTraining())
        predictor->train(trace);

    std::uint64_t branches = 0;
    for (auto _ : state) {
        for (const trace::BranchRecord &record : trace.records()) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            benchmark::DoNotOptimize(predictor->predict(record));
            predictor->update(record);
            ++branches;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

// Same predictors driven through the fused batch API
// (simulateBatch over the prefiltered conditional view) — the
// BM_*Fused / BM_* pairs are the per-family A/B the throughput gate
// summarizes.
void
runFusedLoop(benchmark::State &state, const std::string &scheme)
{
    const trace::TraceBuffer &trace = gccTrace();
    const auto predictor = predictors::makePredictor(scheme);
    if (predictor->needsTraining())
        predictor->train(trace);

    std::uint64_t branches = 0;
    for (auto _ : state) {
        AccuracyCounter accuracy;
        predictor->simulateBatch(trace.conditionalView(), accuracy);
        benchmark::DoNotOptimize(accuracy.hits());
        branches += accuracy.total();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

// And the same predictors again over the predecoded SoA view — the
// per-trace dictionary/outcome/index lanes are built once (outside
// the timed region, matching how the harness shares one artifact
// across all sweep cells) and every pass reuses them.
void
runSoaLoop(benchmark::State &state, const std::string &scheme)
{
    const trace::TraceBuffer &trace = gccTrace();
    const trace::PredecodedView view = trace.predecodedView();
    const auto predictor = predictors::makePredictor(scheme);
    if (predictor->needsTraining())
        predictor->train(trace);

    std::uint64_t branches = 0;
    for (auto _ : state) {
        AccuracyCounter accuracy;
        predictor->simulateBatch(view, accuracy);
        benchmark::DoNotOptimize(accuracy.hits());
        branches += accuracy.total();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

void
BM_TwoLevelAhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(AHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelAhrt);

void
BM_TwoLevelAhrtFused(benchmark::State &state)
{
    runFusedLoop(state, "AT(AHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelAhrtFused);

void
BM_TwoLevelAhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(AHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelAhrtSoa);

void
BM_TwoLevelIhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(IHRT(,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelIhrt);

void
BM_TwoLevelIhrtFused(benchmark::State &state)
{
    runFusedLoop(state, "AT(IHRT(,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelIhrtFused);

void
BM_TwoLevelIhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(IHRT(,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelIhrtSoa);

void
BM_TwoLevelHhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(HHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelHhrt);

void
BM_TwoLevelHhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(HHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelHhrtSoa);

void
BM_LeeSmith(benchmark::State &state)
{
    runPredictorLoop(state, "LS(AHRT(512,A2),,)");
}
BENCHMARK(BM_LeeSmith);

void
BM_LeeSmithFused(benchmark::State &state)
{
    runFusedLoop(state, "LS(AHRT(512,A2),,)");
}
BENCHMARK(BM_LeeSmithFused);

void
BM_LeeSmithSoa(benchmark::State &state)
{
    runSoaLoop(state, "LS(AHRT(512,A2),,)");
}
BENCHMARK(BM_LeeSmithSoa);

// Tournament scheme: both components plus the chooser on every
// branch, so the reference loop pays roughly the sum of its parts.
// The fused path instead runs each component's own fused batch and
// replays the chooser over captured correctness lanes.
const char kCombiningScheme[] =
    "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),"
    "CT(2^12))";

void
BM_Combining(benchmark::State &state)
{
    runPredictorLoop(state, kCombiningScheme);
}
BENCHMARK(BM_Combining);

void
BM_CombiningFused(benchmark::State &state)
{
    runFusedLoop(state, kCombiningScheme);
}
BENCHMARK(BM_CombiningFused);

void
BM_CombiningSoa(benchmark::State &state)
{
    runSoaLoop(state, kCombiningScheme);
}
BENCHMARK(BM_CombiningSoa);

void
BM_StaticTraining(benchmark::State &state)
{
    runPredictorLoop(state, "ST(AHRT(512,12SR),PT(2^12,PB),Same)");
}
BENCHMARK(BM_StaticTraining);

void
BM_Btfn(benchmark::State &state)
{
    runPredictorLoop(state, "BTFN");
}
BENCHMARK(BM_Btfn);

void
BM_SimulatorTraceGeneration(benchmark::State &state)
{
    const auto workload = workloads::makeWorkload("matrix300");
    const isa::Program program = workload->buildTest();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        sim::Simulator simulator(program);
        sim::SimOptions options;
        options.maxInstructions = 2000000;
        const sim::SimResult result =
            simulator.run(nullptr, options);
        instructions += result.instructions;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_SimulatorTraceGeneration);

/**
 * Steady-clock A/B/C of a scheme: the reference predict()/update()
 * loop, the fused AoS simulateBatch() path, and the predecoded SoA
 * simulateBatch() path (on warm tables, or reset before each pass),
 * all over the same gcc trace. These feed the
 * headline scalars the CI throughput gate (tools/check_throughput.py)
 * compares against the committed baseline — the gate checks the
 * speedup ratios (stable across hosts) rather than absolute
 * records/sec. The SoA legs reuse the buffer's cached artifact, like
 * the harness does when one trace is shared across all sweep cells.
 */
enum class DriveMode
{
    Reference,
    Fused,
    Soa,
    /** The SoA overload on a predictor reset (untimed) before each
     *  pass: the cold-table state every sweep cell starts from. */
    SoaCold,
};

double
timedRecordsPerSec(const std::string &scheme, DriveMode mode)
{
    const trace::TraceBuffer &trace = gccTrace();
    const trace::PredecodedView view = trace.predecodedView();
    const auto predictor = predictors::makePredictor(scheme);
    // Profiled schemes (ST, Profile) measure against their training
    // on the same trace, like the paper's Same data sets; untrained
    // they would time an all-taken preset.
    if (predictor->needsTraining())
        predictor->train(trace);

    const auto pass = [&]() -> std::uint64_t {
        AccuracyCounter accuracy;
        switch (mode) {
        case DriveMode::Fused:
            predictor->simulateBatch(trace.conditionalView(),
                                     accuracy);
            break;
        case DriveMode::Soa:
        case DriveMode::SoaCold:
            predictor->simulateBatch(view, accuracy);
            break;
        case DriveMode::Reference:
            for (const trace::BranchRecord &record : trace.records()) {
                if (record.cls != trace::BranchClass::Conditional)
                    continue;
                benchmark::DoNotOptimize(
                    predictor->predict(record));
                predictor->update(record);
                accuracy.record(true);
            }
            break;
        }
        return accuracy.total();
    };

    pass(); // warm tables, caches, and (for SoA) the index lanes
    // Best-of-N repeats rather than one long window: on shared CI
    // hosts a neighbour stealing the core mid-window skews whichever
    // leg it lands on, and the gated ratios divide two such windows.
    // The fastest repeat approximates the uncontended rate of each
    // leg, so the ratio stays stable run to run. The cold leg's
    // reset sits outside the clock.
    constexpr int kRepeats = 5;
    constexpr int kPassesPerRepeat = 4;
    double best = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
        std::uint64_t records = 0;
        double seconds = 0.0;
        for (int i = 0; i < kPassesPerRepeat; ++i) {
            if (mode == DriveMode::SoaCold)
                predictor->reset();
            const auto start = std::chrono::steady_clock::now();
            records += pass();
            seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        }
        best = std::max(best,
                        static_cast<double>(records) / seconds);
    }
    return best;
}

/**
 * Seconds to build one predecoded artifact (dictionary + outcome
 * bitvector) from scratch for the gcc trace. This is the one-time
 * per-trace cost the sweep amortizes across all cells; the gate
 * reports it relative to a single fused AoS pass so a regression
 * that makes predecode slower than the work it saves is visible.
 */
double
timedPredecodeBuildSeconds()
{
    const trace::TraceBuffer &trace = gccTrace();
    constexpr int kBuilds = 20;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kBuilds; ++i) {
        const trace::PredecodedTrace soa(trace.conditionalView());
        benchmark::DoNotOptimize(soa.size());
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return seconds / kBuilds;
}

} // namespace

// Expanded BENCHMARK_MAIN() so the run is wrapped in a BenchRecorder:
// like every other bench binary it leaves a BENCH_throughput.json
// behind (wall time + config fingerprint + the reference-vs-fused
// headline scalars; per-benchmark numbers come from
// --benchmark_format=json if needed).
int
main(int argc, char **argv)
{
    tlat::bench::BenchRecorder record("throughput");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const std::string ahrt = "AT(AHRT(512,12SR),PT(2^12,A2),)";
    const std::string ihrt = "AT(IHRT(,12SR),PT(2^12,A2),)";
    const double reference =
        timedRecordsPerSec(ahrt, DriveMode::Reference);
    const double fused = timedRecordsPerSec(ahrt, DriveMode::Fused);
    const double soa_ahrt = timedRecordsPerSec(ahrt, DriveMode::Soa);
    const double soa_ahrt_cold =
        timedRecordsPerSec(ahrt, DriveMode::SoaCold);
    const double fused_ihrt =
        timedRecordsPerSec(ihrt, DriveMode::Fused);
    const double soa_ihrt = timedRecordsPerSec(ihrt, DriveMode::Soa);
    record.addScalar("reference_records_per_sec", reference);
    record.addScalar("fused_records_per_sec", fused);
    record.addScalar("fused_speedup", fused / reference);
    record.addScalar("soa_ahrt_records_per_sec", soa_ahrt);
    record.addScalar("soa_ahrt_speedup", soa_ahrt / fused);
    // The gated cold-table ratio: what every sweep cell runs — the
    // lane pass over the trace's cached AHRT resolution — against
    // the fused AoS loop. The warm soa_ahrt leg above times the AoS
    // loop behind the SoA overload.
    record.addScalar("soa_ahrt_cold_records_per_sec", soa_ahrt_cold);
    record.addScalar("soa_ahrt_cold_speedup", soa_ahrt_cold / fused);
    record.addScalar("fused_ihrt_records_per_sec", fused_ihrt);
    record.addScalar("soa_ihrt_records_per_sec", soa_ihrt);
    // The gated ratio: SoA over fused AoS on the IHRT scheme, where
    // the predecoded id lane turns every hash-map probe into a
    // direct vector index.
    record.addScalar("soa_speedup", soa_ihrt / fused_ihrt);

    // SIMD A/B on the same IHRT SoA leg: the vector fused kernel
    // (whatever level runtime dispatch picked) against the same run
    // with the level pinned to Scalar, which routes simulateBatch
    // back through the pre-SIMD lane-prober path. Self-normalizing
    // like the other gated ratios; simd_active records whether a
    // vector level was available at all (the gate relaxes to ~1.0x
    // on scalar-only hosts, where both legs run the same code).
    // Each leg lasts milliseconds, so one back-to-back pair is at the
    // mercy of host noise: the ratio is the median of interleaved
    // vector/scalar pairs, as bench_serve reports serve_vs_offline.
    constexpr int kSimdPairs = 7; // odd, so the median is one pair
    std::vector<double> simd_legs;
    std::vector<double> scalar_legs;
    std::vector<double> simd_ratios;
    for (int i = 0; i < kSimdPairs; ++i) {
        simd_legs.push_back(timedRecordsPerSec(ihrt, DriveMode::Soa));
        {
            const util::simd::ScopedLevelOverride pin(
                util::simd::Level::Scalar);
            scalar_legs.push_back(
                timedRecordsPerSec(ihrt, DriveMode::Soa));
        }
        simd_ratios.push_back(simd_legs.back() / scalar_legs.back());
    }
    const auto median = [](std::vector<double> values) {
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    const double simd_rps = median(simd_legs);
    const double simd_scalar_rps = median(scalar_legs);
    const double simd_speedup = median(simd_ratios);
    const bool simd_active =
        util::simd::activeLevel() != util::simd::Level::Scalar;
    record.addScalar("simd_records_per_sec", simd_rps);
    record.addScalar("simd_scalar_records_per_sec",
                     simd_scalar_rps);
    record.addScalar("simd_speedup", simd_speedup);
    record.addScalar("simd_active", simd_active ? 1.0 : 0.0);

    // Tournament A/B/C: the combining fused path should recover most
    // of the component fused speedup despite the chooser replay pass.
    const double comb_reference =
        timedRecordsPerSec(kCombiningScheme, DriveMode::Reference);
    const double comb_fused =
        timedRecordsPerSec(kCombiningScheme, DriveMode::Fused);
    const double comb_soa =
        timedRecordsPerSec(kCombiningScheme, DriveMode::Soa);
    record.addScalar("comb_reference_records_per_sec",
                     comb_reference);
    record.addScalar("comb_fused_records_per_sec", comb_fused);
    record.addScalar("comb_fused_speedup",
                     comb_fused / comb_reference);
    record.addScalar("comb_soa_records_per_sec", comb_soa);

    // The section 5.3 comparison schemes: each scheme's fast path
    // (the predecoded view, which BTFN unwraps to its AoS span loop
    // since only the records carry the target) against its trained
    // reference loop.
    const char *const kStScheme = "ST(AHRT(512,12SR),PT(2^12,PB),Same)";
    const double st_reference =
        timedRecordsPerSec(kStScheme, DriveMode::Reference);
    const double st_fused = timedRecordsPerSec(kStScheme, DriveMode::Soa);
    const double profile_reference =
        timedRecordsPerSec("Profile", DriveMode::Reference);
    const double profile_fused =
        timedRecordsPerSec("Profile", DriveMode::Soa);
    const double btfn_reference =
        timedRecordsPerSec("BTFN", DriveMode::Reference);
    const double btfn_fused = timedRecordsPerSec("BTFN", DriveMode::Soa);
    record.addScalar("st_reference_records_per_sec", st_reference);
    record.addScalar("st_fused_records_per_sec", st_fused);
    record.addScalar("st_fused_speedup", st_fused / st_reference);
    record.addScalar("profile_reference_records_per_sec",
                     profile_reference);
    record.addScalar("profile_fused_records_per_sec", profile_fused);
    record.addScalar("profile_fused_speedup",
                     profile_fused / profile_reference);
    record.addScalar("btfn_reference_records_per_sec", btfn_reference);
    record.addScalar("btfn_fused_records_per_sec", btfn_fused);
    record.addScalar("btfn_fused_speedup", btfn_fused / btfn_reference);

    // Predecode build cost, expressed in fused-AoS-pass units: how
    // many single-scheme passes one build costs. Sweeps run hundreds
    // of cells per trace, so anything well under 1.0 amortizes away.
    const double conditionals = static_cast<double>(
        gccTrace().conditionalView().size());
    const double fused_pass_seconds = conditionals / fused;
    const double predecode_overhead =
        timedPredecodeBuildSeconds() / fused_pass_seconds;
    record.addScalar("predecode_overhead", predecode_overhead);

    // Peak resident set of the whole bench run — the memory-side
    // companion to the throughput scalars, printed (not gated) so a
    // footprint regression in the hot paths shows up in the log.
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_bytes =
        static_cast<double>(usage.ru_maxrss) * 1024.0;
    record.addScalar("peak_rss_bytes", peak_rss_bytes);

    std::cout << "reference: " << reference
              << " records/sec, fused: " << fused
              << " records/sec, speedup: " << fused / reference
              << "x\n"
              << "soa(ahrt): " << soa_ahrt << " records/sec ("
              << soa_ahrt / fused << "x fused), cold: " << soa_ahrt_cold
              << " records/sec (" << soa_ahrt_cold / fused
              << "x fused)\n"
              << "fused(ihrt): " << fused_ihrt
              << " records/sec, soa(ihrt): " << soa_ihrt
              << " records/sec, soa_speedup: "
              << soa_ihrt / fused_ihrt << "x\n"
              << "combining reference: " << comb_reference
              << " records/sec, fused: " << comb_fused
              << " records/sec, speedup: "
              << comb_fused / comb_reference << "x, soa: "
              << comb_soa << " records/sec\n"
              << "st: " << st_fused / st_reference
              << "x, profile: " << profile_fused / profile_reference
              << "x, btfn: " << btfn_fused / btfn_reference
              << "x fused over trained reference\n"
              << "predecode build: " << predecode_overhead
              << " fused passes\n"
              << "simd(" << util::simd::levelName(
                     util::simd::activeLevel())
              << "): " << simd_rps << " records/sec, scalar soa: "
              << simd_scalar_rps << " records/sec, simd_speedup: "
              << simd_speedup << "x (median of " << kSimdPairs
              << " pairs)\n"
              << "peak rss: " << peak_rss_bytes / (1024.0 * 1024.0)
              << " MiB\n";
    return 0;
}
