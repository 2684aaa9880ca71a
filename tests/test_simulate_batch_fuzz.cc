/**
 * @file
 * Randomized equivalence suite for the batched simulation fast path.
 *
 * BranchPredictor::simulateBatch() carries a strict bit-equivalence
 * contract: the fused overrides must leave the predictor in exactly
 * the state the reference predict()/record()/update() loop would —
 * same accuracy counts, same internal tables and statistics, same
 * collectMetrics() JSON, same checkpoint bytes. This suite holds
 * every scheme the factory can build (and the direct-construction
 * configurations the factory never emits: cached prediction bit,
 * speculative history update, counter-width pattern entries, the
 * generalized scope matrix, delayed updates) to that contract on
 * randomized traces across multiple seeds.
 *
 * The comparison is four-way: the predecoded-view fast path under the
 * host's best SIMD level (util/simd.hh — the vectorized fused pass on
 * AVX2/NEON hosts), the same path pinned to the scalar kernels via
 * ScopedLevelOverride, the AoS span overload, and the per-record
 * reference loop. On a scalar-only host the first two legs coincide
 * and the suite degenerates to the original three-way — still a valid
 * run, just without cross-level coverage.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/combining_predictor.hh"
#include "core/delayed_update.hh"
#include "core/generalized_two_level.hh"
#include "core/scheme_config.hh"
#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "harness/parallel_sweep.hh"
#include "harness/suite.hh"
#include "isa/instruction.hh"
#include "predictors/profile_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "predictors/static_predictors.hh"
#include "predictors/static_training.hh"
#include "sim/simulator.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_filter.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace tlat
{
namespace
{

using core::TwoLevelConfig;
using core::TwoLevelPredictor;
using harness::measure;
using harness::measureReference;
using trace::BranchClass;
using trace::BranchRecord;
using trace::TraceBuffer;

/**
 * A randomized trace mixing biased conditional branches (a small pc
 * pool so histories and tables actually warm up), loop-like
 * alternating branches, and the non-conditional classes the batch
 * loop must skip. Forward and backward targets both occur so BTFN is
 * exercised in both directions.
 */
TraceBuffer
makeRandomTrace(std::uint64_t seed, std::size_t records = 4000)
{
    Rng rng(seed);
    TraceBuffer trace("fuzz-" + std::to_string(seed));

    constexpr std::size_t kSites = 48;
    struct Site
    {
        std::uint64_t pc;
        std::uint64_t target;
        std::uint32_t takenPermille;
        bool alternating;
        bool lastTaken;
    };
    std::vector<Site> sites;
    for (std::size_t i = 0; i < kSites; ++i) {
        Site site;
        site.pc = 0x1000 + 4 * rng.nextBelow(1 << 14);
        // Half backward targets, half forward, so BTFN sees both.
        site.target = (i % 2 == 0) ? site.pc - 4 * rng.nextBelow(64)
                                   : site.pc + 4 * rng.nextBelow(64);
        site.takenPermille =
            static_cast<std::uint32_t>(rng.nextBelow(1001));
        site.alternating = rng.nextBelow(8) == 0;
        site.lastTaken = false;
        sites.push_back(site);
    }

    for (std::size_t i = 0; i < records; ++i) {
        // ~1 in 8 records is non-conditional noise the loop skips.
        if (rng.nextBelow(8) == 0) {
            BranchRecord record;
            record.pc = 0x9000 + 4 * rng.nextBelow(1 << 10);
            record.target = 0x9000 + 4 * rng.nextBelow(1 << 10);
            const std::uint64_t pick = rng.nextBelow(3);
            record.cls = pick == 0
                ? BranchClass::Return
                : pick == 1 ? BranchClass::ImmediateUnconditional
                            : BranchClass::RegisterUnconditional;
            record.taken = true;
            record.isCall = rng.nextBelow(2) == 0;
            trace.append(record);
            continue;
        }
        Site &site = sites[rng.nextBelow(kSites)];
        BranchRecord record;
        record.pc = site.pc;
        record.target = site.target;
        record.cls = BranchClass::Conditional;
        if (site.alternating) {
            site.lastTaken = !site.lastTaken;
            record.taken = site.lastTaken;
        } else {
            record.taken = rng.nextBelow(1000) < site.takenPermille;
        }
        trace.append(record);
    }
    return trace;
}

/** collectMetrics() rendered through the stable JSON serializer. */
std::string
metricsJson(const core::BranchPredictor &predictor,
            const AccuracyCounter &accuracy,
            const TraceBuffer &trace)
{
    harness::RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = trace.name();
    report.accuracy = accuracy;
    predictor.collectMetrics(report.predictor);
    return harness::runMetricsJsonString(report);
}

/** The AoS batch overload, bypassing the predecoded view. */
AccuracyCounter
measureAos(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    AccuracyCounter accuracy;
    predictor.simulateBatch(trace.conditionalView(), accuracy);
    return accuracy;
}

/** measure() with SIMD dispatch pinned to the scalar kernels. */
AccuracyCounter
measureScalarSoa(core::BranchPredictor &predictor,
                 const TraceBuffer &trace)
{
    const util::simd::ScopedLevelOverride pin(
        util::simd::Level::Scalar);
    return measure(predictor, trace);
}

/**
 * Runs the measured protocol on four freshly built predictors — one
 * through measure() at the host's best SIMD level (the vectorized
 * fused pass where eligible), one through measure() pinned to
 * scalar dispatch (the SoA fast path), one through the AoS span
 * overload, one through measureReference() (the per-record virtual
 * loop) — and asserts identical accuracy and identical metrics JSON
 * across all four.
 */
void
expectBatchEqualsReference(core::BranchPredictor &fast,
                           core::BranchPredictor &scalar_soa,
                           core::BranchPredictor &aos,
                           core::BranchPredictor &reference,
                           const TraceBuffer &trace,
                           const TraceBuffer *train = nullptr)
{
    // Schemes that need training profile @p train when given (the
    // paper's Diff data sets), else the measured trace itself.
    const TraceBuffer &profile = train ? *train : trace;
    fast.reset();
    scalar_soa.reset();
    aos.reset();
    reference.reset();
    if (fast.needsTraining())
        fast.train(profile);
    if (scalar_soa.needsTraining()) {
        const util::simd::ScopedLevelOverride pin(
            util::simd::Level::Scalar);
        scalar_soa.train(profile);
    }
    if (aos.needsTraining())
        aos.train(profile);
    if (reference.needsTraining())
        reference.train(profile);

    const AccuracyCounter fast_acc = measure(fast, trace);
    const AccuracyCounter soa_acc = measureScalarSoa(scalar_soa, trace);
    const AccuracyCounter aos_acc = measureAos(aos, trace);
    const AccuracyCounter ref_acc = measureReference(reference, trace);

    EXPECT_EQ(fast_acc.total(), ref_acc.total())
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(fast_acc.hits(), ref_acc.hits())
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(soa_acc.total(), ref_acc.total())
        << scalar_soa.name() << " (scalar) on " << trace.name();
    EXPECT_EQ(soa_acc.hits(), ref_acc.hits())
        << scalar_soa.name() << " (scalar) on " << trace.name();
    EXPECT_EQ(aos_acc.total(), ref_acc.total())
        << aos.name() << " on " << trace.name();
    EXPECT_EQ(aos_acc.hits(), ref_acc.hits())
        << aos.name() << " on " << trace.name();
    EXPECT_EQ(metricsJson(fast, fast_acc, trace),
              metricsJson(reference, ref_acc, trace))
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(metricsJson(scalar_soa, soa_acc, trace),
              metricsJson(reference, ref_acc, trace))
        << scalar_soa.name() << " (scalar) on " << trace.name();
    EXPECT_EQ(metricsJson(aos, aos_acc, trace),
              metricsJson(reference, ref_acc, trace))
        << aos.name() << " on " << trace.name();
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(SimulateBatchFuzz, EveryFactoryScheme)
{
    std::vector<std::string> schemes;
    for (const char *hrt :
         {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"}) {
            schemes.push_back(std::string("AT(") + hrt + "6SR),PT(2^6," +
                              atm + "),)");
        }
        schemes.push_back(std::string("ST(") + hrt +
                          "6SR),PT(2^6,PB),Same)");
    }
    for (const char *hrt : {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        schemes.push_back(std::string("LS(") + hrt + "A2),,)");
        schemes.push_back(std::string("LS(") + hrt + "LT),,)");
    }
    schemes.insert(schemes.end(),
                   {"AlwaysTaken", "AlwaysNotTaken", "BTFN",
                    "Profile", "GSH(6,A2)", "GSH(8,LT)"});
    // Combining schemes: every component pairing class the factory
    // can emit — two-level + BTB, gshare + BTB, two-level + static.
    schemes.insert(
        schemes.end(),
        {"CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),"
         "CT(2^8))",
         "CMB(GSH(6,A2),LS(IHRT(,LT),,),CT(2^6))",
         "CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^8))"});

    for (const std::string &scheme : schemes) {
        const auto config = core::SchemeConfig::parse(scheme);
        ASSERT_TRUE(config.has_value()) << scheme;
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            const auto fast = predictors::makePredictor(*config);
            const auto scalar = predictors::makePredictor(*config);
            const auto aos = predictors::makePredictor(*config);
            const auto reference = predictors::makePredictor(*config);
            expectBatchEqualsReference(*fast, *scalar, *aos,
                                       *reference, trace);
        }
    }
}

TEST(SimulateBatchFuzz, TwoLevelCachedSpeculativeAndCounterModes)
{
    // The factory never sets these knobs; construct directly. Every
    // (HRT flavour x cached bit x speculative update) combination
    // plus the counter-width extension must stay bit-identical —
    // including checkpoint bytes, compared below.
    for (const core::TableKind kind :
         {core::TableKind::Ideal, core::TableKind::Associative,
          core::TableKind::Hashed}) {
        for (const bool cached : {false, true}) {
            for (const bool speculative : {false, true}) {
                // 5 bits is the first width the lane pass's 16-entry
                // LUTs reject: the CounterOps prober and AoS loops.
                for (const unsigned counter_bits : {0u, 3u, 5u}) {
                    TwoLevelConfig config;
                    config.hrtKind = kind;
                    config.hrtEntries = 64;
                    config.historyBits = 6;
                    config.cachedPredictionBit = cached;
                    config.speculativeHistoryUpdate = speculative;
                    config.counterBits = counter_bits;
                    for (const std::uint64_t seed : kSeeds) {
                        const TraceBuffer trace = makeRandomTrace(seed);
                        TwoLevelPredictor fast(config);
                        TwoLevelPredictor scalar(config);
                        TwoLevelPredictor aos(config);
                        TwoLevelPredictor reference(config);
                        expectBatchEqualsReference(fast, scalar, aos,
                                                   reference, trace);
                        EXPECT_EQ(fast.inFlightBranches(), 0u);
                        EXPECT_EQ(fast.squashEvents(),
                                  reference.squashEvents());
                        EXPECT_EQ(scalar.squashEvents(),
                                  reference.squashEvents());
                        EXPECT_EQ(aos.squashEvents(),
                                  reference.squashEvents());

                        std::ostringstream fast_ckpt;
                        std::ostringstream scalar_ckpt;
                        std::ostringstream aos_ckpt;
                        std::ostringstream ref_ckpt;
                        ASSERT_TRUE(fast.saveCheckpoint(fast_ckpt));
                        ASSERT_TRUE(
                            scalar.saveCheckpoint(scalar_ckpt));
                        ASSERT_TRUE(aos.saveCheckpoint(aos_ckpt));
                        ASSERT_TRUE(
                            reference.saveCheckpoint(ref_ckpt));
                        EXPECT_EQ(fast_ckpt.str(), ref_ckpt.str())
                            << fast.name() << " cached=" << cached
                            << " spec=" << speculative
                            << " counterBits=" << counter_bits;
                        EXPECT_EQ(scalar_ckpt.str(), ref_ckpt.str())
                            << scalar.name() << " (scalar) cached="
                            << cached << " spec=" << speculative
                            << " counterBits=" << counter_bits;
                        EXPECT_EQ(aos_ckpt.str(), ref_ckpt.str())
                            << aos.name() << " cached=" << cached
                            << " spec=" << speculative
                            << " counterBits=" << counter_bits;
                    }
                }
            }
        }
    }
}

TEST(SimulateBatchFuzz, GeneralizedScopeMatrix)
{
    using core::GeneralizedConfig;
    using core::GeneralizedTwoLevelPredictor;
    using core::HistoryScope;
    using core::PatternScope;
    for (const HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        for (const PatternScope pattern :
             {PatternScope::Global, PatternScope::PerSet,
              PatternScope::PerAddress}) {
            GeneralizedConfig config;
            config.historyScope = history;
            config.patternScope = pattern;
            config.historyBits = 6;
            config.xorAddress = history == HistoryScope::Global;
            for (const std::uint64_t seed : kSeeds) {
                const TraceBuffer trace = makeRandomTrace(seed);
                GeneralizedTwoLevelPredictor fast(config);
                GeneralizedTwoLevelPredictor scalar(config);
                GeneralizedTwoLevelPredictor aos(config);
                GeneralizedTwoLevelPredictor reference(config);
                expectBatchEqualsReference(fast, scalar, aos,
                                           reference, trace);
            }
        }
    }
}

/** Builds a factory component for direct CombiningPredictor tests. */
std::unique_ptr<core::BranchPredictor>
makeComponent(const std::string &scheme)
{
    const auto config = core::SchemeConfig::parse(scheme);
    EXPECT_TRUE(config.has_value()) << scheme;
    return predictors::makePredictor(*config);
}

TEST(SimulateBatchFuzz, CombiningChooserInitStatesAndCheckpointBytes)
{
    // The factory always starts the chooser weakly preferring A;
    // direct construction sweeps every initial counter value. The
    // three drive paths must agree on accuracy, metrics JSON and
    // checkpoint bytes.
    for (const unsigned init : {0u, 1u, 2u, 3u}) {
        core::CombiningOptions options;
        options.chooserBits = 6;
        options.initialState = static_cast<std::uint8_t>(init);
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            core::CombiningPredictor fast(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            core::CombiningPredictor scalar(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            core::CombiningPredictor aos(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            core::CombiningPredictor reference(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            expectBatchEqualsReference(fast, scalar, aos, reference,
                                       trace);

            std::ostringstream fast_ckpt;
            std::ostringstream scalar_ckpt;
            std::ostringstream aos_ckpt;
            std::ostringstream ref_ckpt;
            ASSERT_TRUE(fast.saveCheckpoint(fast_ckpt));
            ASSERT_TRUE(scalar.saveCheckpoint(scalar_ckpt));
            ASSERT_TRUE(aos.saveCheckpoint(aos_ckpt));
            ASSERT_TRUE(reference.saveCheckpoint(ref_ckpt));
            EXPECT_EQ(fast_ckpt.str(), ref_ckpt.str())
                << "init=" << init << " seed=" << seed;
            EXPECT_EQ(scalar_ckpt.str(), ref_ckpt.str())
                << "(scalar) init=" << init << " seed=" << seed;
            EXPECT_EQ(aos_ckpt.str(), ref_ckpt.str())
                << "init=" << init << " seed=" << seed;
        }
    }
}

TEST(SimulateBatchFuzz, CombiningMatchesComponentwiseHandSimulation)
{
    // Hand simulation: drive standalone copies of both components
    // through the trace, replay a scalar 2-bit chooser over their
    // correctness streams in plain test code, and require the
    // combining predictor to report exactly that accuracy, the same
    // disagreement count, and the same final chooser counter for
    // every branch site.
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer trace = makeRandomTrace(seed);
        core::CombiningOptions options;
        options.chooserBits = 6;
        core::CombiningPredictor combined(
            makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
            makeComponent("LS(AHRT(64,A2),,)"), options);
        const auto alone_a =
            makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)");
        const auto alone_b = makeComponent("LS(AHRT(64,A2),,)");

        std::vector<std::uint8_t> chooser(
            std::size_t{1} << options.chooserBits,
            options.initialState);
        const std::uint64_t mask =
            (std::uint64_t{1} << options.chooserBits) - 1;
        AccuracyCounter hand;
        std::uint64_t disagreements = 0;
        for (const BranchRecord &record : trace.records()) {
            if (record.cls != BranchClass::Conditional)
                continue;
            const bool pa = alone_a->predict(record);
            const bool pb = alone_b->predict(record);
            std::uint8_t &counter =
                chooser[(record.pc >> options.addrShift) & mask];
            hand.record((counter >= 2 ? pa : pb) == record.taken);
            const bool correct_a = pa == record.taken;
            const bool correct_b = pb == record.taken;
            if (correct_a != correct_b) {
                ++disagreements;
                if (correct_a)
                    counter = static_cast<std::uint8_t>(
                        std::min<unsigned>(counter + 1u, 3u));
                else
                    counter = static_cast<std::uint8_t>(
                        counter > 0 ? counter - 1u : 0u);
            }
            alone_a->update(record);
            alone_b->update(record);
        }

        const AccuracyCounter combined_acc =
            measureReference(combined, trace);
        EXPECT_EQ(combined_acc.hits(), hand.hits()) << "seed=" << seed;
        EXPECT_EQ(combined_acc.total(), hand.total());
        EXPECT_EQ(combined.disagreements(), disagreements);
        for (const std::uint64_t pc : trace.predecoded()->uniquePcs())
            EXPECT_EQ(combined.chooserState(pc),
                      chooser[(pc >> options.addrShift) & mask])
                << "pc=" << pc << " seed=" << seed;
    }
}

TEST(SimulateBatchFuzz, DelayedUpdateWrapperUsesReferenceSemantics)
{
    // The delayed-update wrapper does not override simulateBatch; the
    // default implementation must reproduce the reference loop's
    // delayed pipeline exactly, including the tight-loop
    // predict-taken-when-unresolved policy.
    for (const unsigned delay : {0u, 3u, 7u}) {
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            TwoLevelConfig config;
            config.hrtKind = core::TableKind::Associative;
            config.hrtEntries = 64;
            config.historyBits = 6;
            core::DelayedUpdatePredictor fast(
                std::make_unique<TwoLevelPredictor>(config), delay);
            core::DelayedUpdatePredictor scalar(
                std::make_unique<TwoLevelPredictor>(config), delay);
            core::DelayedUpdatePredictor aos(
                std::make_unique<TwoLevelPredictor>(config), delay);
            core::DelayedUpdatePredictor reference(
                std::make_unique<TwoLevelPredictor>(config), delay);
            expectBatchEqualsReference(fast, scalar, aos, reference,
                                       trace);
        }
    }
}

/** Four-way equivalence for one factory scheme on a given trace. */
void
expectSchemeEqualsReference(const std::string &scheme,
                            const TraceBuffer &trace)
{
    const auto config = core::SchemeConfig::parse(scheme);
    ASSERT_TRUE(config.has_value()) << scheme;
    const auto fast = predictors::makePredictor(*config);
    const auto scalar = predictors::makePredictor(*config);
    const auto aos = predictors::makePredictor(*config);
    const auto reference = predictors::makePredictor(*config);
    expectBatchEqualsReference(*fast, *scalar, *aos, *reference,
                               trace);
}

/** Generalized (PAg) four-way equivalence on a given trace. */
void
expectGeneralizedEqualsReference(const TraceBuffer &trace)
{
    core::GeneralizedConfig config;
    config.historyScope = core::HistoryScope::PerAddress;
    config.patternScope = core::PatternScope::Global;
    config.historyBits = 6;
    core::GeneralizedTwoLevelPredictor fast(config);
    core::GeneralizedTwoLevelPredictor scalar(config);
    core::GeneralizedTwoLevelPredictor aos(config);
    core::GeneralizedTwoLevelPredictor reference(config);
    expectBatchEqualsReference(fast, scalar, aos, reference, trace);
}

/** Schemes covering every SoA prober flavour plus Lee-Smith. */
constexpr const char *kEdgeSchemes[] = {
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "AT(AHRT(64,6SR),PT(2^6,A2),)",
    "AT(HHRT(64,6SR),PT(2^6,A2),)",
    "LS(AHRT(64,A2),,)",
    "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^6))",
};

TEST(SimulateBatchFuzz, EdgeTraceZeroConditionals)
{
    // A trace whose records are all non-conditional predecodes to an
    // empty SoA artifact; the fused loops must run zero iterations
    // and leave all counters and tables untouched.
    Rng rng(0xed6e0);
    TraceBuffer trace("no-conditionals");
    for (std::size_t i = 0; i < 200; ++i) {
        BranchRecord record;
        record.pc = 0x9000 + 4 * rng.nextBelow(1 << 8);
        record.target = 0x9000 + 4 * rng.nextBelow(1 << 8);
        record.cls = rng.nextBelow(2) == 0
            ? BranchClass::Return
            : BranchClass::ImmediateUnconditional;
        record.taken = true;
        trace.append(record);
    }
    ASSERT_TRUE(trace.conditionalView().empty());
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, EdgeTraceSingleUniquePc)
{
    // One conditional site only: the dictionary has a single id and
    // every record is a repeat probe (the IHRT lane's repeat-hit
    // accounting must match per-record lookups exactly).
    Rng rng(0xed6e1);
    TraceBuffer trace("single-site");
    bool last = false;
    for (std::size_t i = 0; i < 3000; ++i) {
        if (rng.nextBelow(5) == 0)
            last = !last;
        trace.append([&] {
            BranchRecord record;
            record.pc = 0x2000;
            record.target = 0x1f00;
            record.cls = BranchClass::Conditional;
            record.taken = last;
            return record;
        }());
    }
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), 1u);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, EdgeTraceManyUniquePcsStressDictionary)
{
    // >64Ki unique conditional PCs: stresses the first-appearance
    // dictionary past the 16-bit boundary, forces cold IHRT probes
    // for every id, and drives heavy AHRT eviction traffic. A tail
    // of random repeats exercises warm probes over the wide id
    // space too.
    constexpr std::size_t kUnique = 70000; // > 65536
    Rng rng(0xed6e2);
    TraceBuffer trace("wide-dictionary");
    for (std::size_t i = 0; i < kUnique; ++i) {
        BranchRecord record;
        record.pc = 0x10000 + 4 * i;
        record.target = record.pc + 16;
        record.cls = BranchClass::Conditional;
        record.taken = i % 3 == 0;
        trace.append(record);
    }
    for (std::size_t i = 0; i < 10000; ++i) {
        BranchRecord record;
        record.pc = 0x10000 + 4 * rng.nextBelow(kUnique);
        record.target = record.pc + 16;
        record.cls = BranchClass::Conditional;
        record.taken = rng.nextBool(0.5);
        trace.append(record);
    }
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), kUnique);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, AdversarialAlternatingTraceMatchesReference)
{
    // A real simulator-collected trace from the adversarial family:
    // strictly periodic sites drive long same-pattern runs through
    // the SoA lanes (saturated pattern entries, constant history
    // windows) that the synthetic random traces rarely sustain.
    const auto workload = workloads::makeWorkload("alternating");
    const TraceBuffer trace =
        sim::collectTrace(workload->buildTest(), 6000);
    ASSERT_FALSE(trace.conditionalView().empty());
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, AdversarialSingleHotBranchMatchesReference)
{
    // The kmp comparison branch filtered to its own pc: one blazing
    // hot conditional site with an i.i.d. outcome stream — a
    // single-id dictionary whose every probe is a repeat hit, with
    // genuinely random (not synthetic-runs) history churn.
    const auto workload = workloads::makeWorkload("kmp");
    const isa::Program program = workload->buildTest();
    const TraceBuffer full = sim::collectTrace(program, 12000);
    const std::uint64_t pc =
        program.symbols.at("kmp_compare") * isa::kInstructionBytes;
    const TraceBuffer trace = trace::filterByPcRange(
        full, pc, pc + isa::kInstructionBytes);
    ASSERT_GT(trace.size(), 3000u);
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), 1u);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, HashedMixedHrtMatchesReference)
{
    // The factory builds HHRTs with the low-bits hash; the mixed
    // hash routes the SoA fast path through the precomputed mix64
    // index lane (and the AoS fused path through lookupDirect's
    // indexOfLine), so pin it explicitly across seeds.
    TwoLevelConfig config;
    config.hrtKind = core::TableKind::Hashed;
    config.hrtEntries = 64;
    config.historyBits = 6;
    config.hhrtHash = core::HashKind::Mixed;
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer trace = makeRandomTrace(seed);
        TwoLevelPredictor fast(config);
        TwoLevelPredictor scalar(config);
        TwoLevelPredictor aos(config);
        TwoLevelPredictor reference(config);
        expectBatchEqualsReference(fast, scalar, aos, reference,
                                   trace);
    }
}

TEST(SimulateBatchFuzz, MidPairStateFallsBackToReference)
{
    // A predict() without its paired update() leaves the lookup memo
    // live; a batch issued in that state must still match the
    // reference loop run from the same mid-pair state.
    const TraceBuffer trace = makeRandomTrace(11);
    ASSERT_FALSE(trace.conditionalView().empty());
    const BranchRecord &first = trace.conditionalView().front();

    TwoLevelConfig config;
    config.hrtKind = core::TableKind::Associative;
    config.hrtEntries = 64;
    config.historyBits = 6;
    TwoLevelPredictor fast(config);
    TwoLevelPredictor reference(config);

    (void)fast.predict(first);
    (void)reference.predict(first);
    fast.update(first);
    reference.update(first);

    // Leave a dangling predict() and then batch.
    (void)fast.predict(first);
    (void)reference.predict(first);
    AccuracyCounter fast_acc;
    fast.simulateBatch(trace.conditionalView(), fast_acc);
    AccuracyCounter ref_acc;
    for (const BranchRecord &record : trace.records()) {
        if (record.cls != BranchClass::Conditional)
            continue;
        const bool predicted = reference.predict(record);
        ref_acc.record(predicted == record.taken);
        reference.update(record);
    }
    EXPECT_EQ(fast_acc.hits(), ref_acc.hits());
    EXPECT_EQ(fast_acc.total(), ref_acc.total());
    EXPECT_EQ(metricsJson(fast, fast_acc, trace),
              metricsJson(reference, ref_acc, trace));
}

/**
 * A trace sharing about half of @p base's conditional sites: sites
 * with an odd line number move to a disjoint pc range, and a quarter
 * of all conditional outcomes flip, so a profile of @p base is a
 * partly wrong, partly missing profile of this trace (the paper's
 * Diff data sets). Non-conditional records are copied as they are.
 */
TraceBuffer
makeOverlappingTrace(const TraceBuffer &base, std::uint64_t seed)
{
    Rng rng(seed);
    TraceBuffer trace("overlap-" + std::to_string(seed));
    for (BranchRecord record : base.records()) {
        if (record.cls == BranchClass::Conditional) {
            if ((record.pc >> 2) % 2 == 1) {
                record.pc += 0x100000;
                record.target += 0x100000;
            }
            if (rng.nextBelow(4) == 0)
                record.taken = !record.taken;
        }
        trace.append(record);
    }
    return trace;
}

/**
 * A probe of the state a measured run leaves behind in schemes
 * without table metrics: Static Training's HRT counters, then the
 * per-branch predictions of a reference-loop pass over @p trace
 * (history registers, preset and profiled bits).
 */
std::string
stateProbe(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    std::string probe;
    if (const auto *st =
            dynamic_cast<const predictors::StaticTrainingPredictor *>(
                &predictor)) {
        const core::TableStats &stats = st->hrtStats();
        probe = std::to_string(stats.hits) + "/" +
                std::to_string(stats.misses) + "/" +
                std::to_string(stats.evictions) + "/" +
                std::to_string(stats.aliasedLookups) + " ";
    }
    for (const BranchRecord &record : trace.conditionalView()) {
        probe.push_back(predictor.predict(record) ? '1' : '0');
        predictor.update(record);
    }
    return probe;
}

/** The trained schemes with a fused path, one per HRT flavour. */
constexpr const char *kTrainedSchemes[] = {
    "ST(IHRT(,6SR),PT(2^6,PB),Diff)",
    "ST(AHRT(64,6SR),PT(2^6,PB),Diff)",
    "ST(HHRT(64,6SR),PT(2^6,PB),Diff)",
    "Profile",
};

TEST(SimulateBatchFuzz, TrainedSchemesProfiledOnADifferentTrace)
{
    // Training and measuring on different traces: pcs seen only in
    // training, pcs seen only when measuring (unseen: predict taken,
    // fresh HRT entries) and shared pcs with shifted statistics.
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer train = makeRandomTrace(seed);
        const TraceBuffer test = makeOverlappingTrace(train, seed + 100);
        std::size_t shared = 0;
        const auto trained = train.predecoded();
        const auto measured = test.predecoded();
        for (const std::uint64_t pc : measured->uniquePcs())
            shared += std::count(trained->uniquePcs().begin(),
                                 trained->uniquePcs().end(), pc);
        ASSERT_GT(shared, 0u);
        ASSERT_LT(shared, measured->uniquePcCount());

        for (const char *scheme : kTrainedSchemes) {
            const auto config = core::SchemeConfig::parse(scheme);
            ASSERT_TRUE(config.has_value()) << scheme;
            const auto fast = predictors::makePredictor(*config);
            const auto scalar = predictors::makePredictor(*config);
            const auto aos = predictors::makePredictor(*config);
            const auto reference = predictors::makePredictor(*config);
            expectBatchEqualsReference(*fast, *scalar, *aos,
                                       *reference, test, &train);
            const std::string want =
                stateProbe(*reference, test);
            EXPECT_EQ(stateProbe(*fast, test), want)
                << scheme << " seed=" << seed;
            EXPECT_EQ(stateProbe(*scalar, test), want)
                << scheme << " seed=" << seed;
            EXPECT_EQ(stateProbe(*aos, test), want)
                << scheme << " seed=" << seed;
        }
    }
}

TEST(SimulateBatchFuzz, StaticTrainingMidPairStateFallsBackToReference)
{
    // As MidPairStateFallsBackToReference, for the Static Training
    // fast path: a dangling predict() leaves the HRT memo live, and a
    // batch over the predecoded view must honour it.
    const TraceBuffer trace = makeRandomTrace(11);
    const BranchRecord &first = trace.conditionalView().front();
    for (const char *scheme : kTrainedSchemes) {
        const auto fast = predictors::makePredictor(scheme);
        const auto reference = predictors::makePredictor(scheme);
        fast->train(trace);
        reference->train(trace);

        (void)fast->predict(first);
        (void)reference->predict(first);
        fast->update(first);
        reference->update(first);
        (void)fast->predict(first);
        (void)reference->predict(first);

        AccuracyCounter fast_acc;
        fast->simulateBatch(trace.predecodedView(), fast_acc);
        AccuracyCounter ref_acc;
        for (const BranchRecord &record : trace.conditionalView()) {
            const bool predicted = reference->predict(record);
            ref_acc.record(predicted == record.taken);
            reference->update(record);
        }
        EXPECT_EQ(fast_acc.hits(), ref_acc.hits()) << scheme;
        EXPECT_EQ(fast_acc.total(), ref_acc.total()) << scheme;
        EXPECT_EQ(stateProbe(*fast, trace),
                  stateProbe(*reference, trace))
            << scheme;
    }
}

TEST(SimulateBatchFuzz, CombiningWithTrainedAndStaticComponents)
{
    // The tournament's fused path runs each component's own batch
    // with capture attached and replays the chooser over the captured
    // bytes, so a wrong capture byte from any component's fast path
    // shows up as a wrong combined accuracy.
    const char *const schemes[] = {
        "CMB(ST(AHRT(64,6SR),PT(2^6,PB),Diff),Profile,CT(2^6))",
        "CMB(BTFN,ST(IHRT(,6SR),PT(2^6,PB),Diff),CT(2^6))",
        "CMB(Profile,BTFN,CT(2^6))",
        "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),"
        "ST(HHRT(64,6SR),PT(2^6,PB),Diff),CT(2^6))",
    };
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer train = makeRandomTrace(seed);
        const TraceBuffer test = makeOverlappingTrace(train, seed + 100);
        for (const char *scheme : schemes) {
            const auto config = core::SchemeConfig::parse(scheme);
            ASSERT_TRUE(config.has_value()) << scheme;
            const auto fast = predictors::makePredictor(*config);
            const auto scalar = predictors::makePredictor(*config);
            const auto aos = predictors::makePredictor(*config);
            const auto reference = predictors::makePredictor(*config);
            expectBatchEqualsReference(*fast, *scalar, *aos,
                                       *reference, test, &train);
            expectBatchEqualsReference(*fast, *scalar, *aos,
                                       *reference, test);
        }
    }
}

/** Per-branch correctness bytes of one batch run with capture on. */
std::vector<std::uint8_t>
capturedBatch(core::BranchPredictor &predictor,
              const trace::PredecodedView &view)
{
    std::vector<std::uint8_t> bytes(view.records().size(), 0xee);
    AccuracyCounter accuracy;
    accuracy.captureInto(bytes.data());
    predictor.simulateBatch(view, accuracy);
    EXPECT_EQ(accuracy.captureCursor(), bytes.data() + bytes.size());
    return bytes;
}

/** The same bytes from the per-record reference loop. */
std::vector<std::uint8_t>
capturedReference(core::BranchPredictor &predictor,
                  std::span<const BranchRecord> records)
{
    std::vector<std::uint8_t> bytes;
    for (const BranchRecord &record : records) {
        if (record.cls != BranchClass::Conditional)
            continue;
        bytes.push_back(predictor.predict(record) == record.taken);
        predictor.update(record);
    }
    return bytes;
}

TEST(SimulateBatchFuzz, FastPathCaptureBytesMatchReference)
{
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer train = makeRandomTrace(seed);
        const TraceBuffer test = makeOverlappingTrace(train, seed + 100);
        for (const char *scheme :
             {"ST(IHRT(,6SR),PT(2^6,PB),Diff)",
              "ST(AHRT(64,6SR),PT(2^6,PB),Diff)",
              "ST(HHRT(64,6SR),PT(2^6,PB),Diff)", "Profile", "BTFN"}) {
            const auto fast = predictors::makePredictor(scheme);
            const auto reference = predictors::makePredictor(scheme);
            fast->train(train);
            reference->train(train);
            EXPECT_EQ(capturedBatch(*fast, test.predecodedView()),
                      capturedReference(*reference, test.records()))
                << scheme << " seed=" << seed;
        }
    }
}

TEST(SimulateBatchFuzz, BtfnMixedSpanDropsOffToReference)
{
    // BTFN's fused loop expects a conditional-only span; from the
    // first non-conditional record on, the reference loop takes the
    // rest. Counts and capture bytes must not notice the hand-over.
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer trace = makeRandomTrace(seed);
        // Start at a conditional so the fused loop runs before the
        // hand-over; the random trace has noise records further on.
        std::span<const BranchRecord> span = trace.records();
        while (span.front().cls != BranchClass::Conditional)
            span = span.subspan(1);
        predictors::BtfnPredictor reference;
        const std::vector<std::uint8_t> want =
            capturedReference(reference, span);
        ASSERT_LT(want.size(), span.size());

        predictors::BtfnPredictor fast;
        std::vector<std::uint8_t> bytes(want.size(), 0xee);
        AccuracyCounter fast_acc;
        fast_acc.captureInto(bytes.data());
        fast.simulateBatch(span, fast_acc);
        EXPECT_EQ(bytes, want) << "seed=" << seed;
        EXPECT_EQ(fast_acc.total(), want.size());
        EXPECT_EQ(fast_acc.hits(),
                  static_cast<std::uint64_t>(
                      std::count(want.begin(), want.end(), 1)));
        EXPECT_EQ(fast_acc.captureCursor(), bytes.data() + bytes.size());
    }
}

TEST(SimulateBatchFuzz, TrainedSchemesChunkedEqualWholeBuffer)
{
    // Streaming delivers each chunk with its own dictionary and calls
    // simulateBatch once per chunk; single-record chunks take every
    // scheme's drop-off (Profile) or first-touch (ST IHRT) path on
    // every branch. State carried across chunks must make the
    // concatenation equal one whole-buffer run.
    const TraceBuffer train = makeRandomTrace(5, 20000);
    const TraceBuffer test = makeOverlappingTrace(
        makeRandomTrace(5, 140000), 105);
    ASSERT_GT(test.size(), std::size_t{2} * 65536);
    for (const char *scheme : kTrainedSchemes) {
        const auto whole = predictors::makePredictor(scheme);
        whole->train(train);
        const AccuracyCounter whole_acc = measure(*whole, test);
        const std::string whole_state = stateProbe(*whole, test);
        for (const std::size_t chunk : {std::size_t{1},
                                        std::size_t{65536}}) {
            const auto chunked = predictors::makePredictor(scheme);
            chunked->train(train);
            trace::BufferChunkStream stream(test, chunk);
            const AccuracyCounter chunked_acc =
                harness::measureStream(*chunked, stream);
            EXPECT_EQ(chunked_acc.hits(), whole_acc.hits())
                << scheme << " chunk=" << chunk;
            EXPECT_EQ(chunked_acc.total(), whole_acc.total())
                << scheme << " chunk=" << chunk;
            EXPECT_EQ(stateProbe(*chunked, test), whole_state)
                << scheme << " chunk=" << chunk;
        }
    }
}

/** One conditional site at @p pc with the given outcome sequence. */
TraceBuffer
makeSiteTrace(const std::string &name, std::uint64_t pc,
              std::initializer_list<bool> outcomes)
{
    TraceBuffer trace(name);
    for (const bool taken : outcomes) {
        BranchRecord record;
        record.pc = pc;
        record.target = pc + 64;
        record.cls = BranchClass::Conditional;
        record.taken = taken;
        trace.append(record);
    }
    return trace;
}

TEST(SimulateBatchFuzz, TrainingTwiceAccumulates)
{
    // Two train() calls add their tallies; the second profile does
    // not replace the first. Histories restart per training trace.
    constexpr std::uint64_t kPc = 0x4000;
    const TraceBuffer mostly_not_taken = makeSiteTrace(
        "nt", kPc, {false, false, false, false, false});
    const TraceBuffer mostly_taken = makeSiteTrace(
        "t", kPc, {false, false, true, true, true, true});

    // 2-bit histories from all-ones: the first trace books pattern 00
    // as not taken three times, the second as taken once.
    predictors::StaticTrainingConfig st_config;
    st_config.hrtKind = core::TableKind::Ideal;
    st_config.historyBits = 2;
    predictors::StaticTrainingPredictor st_once(st_config);
    predictors::StaticTrainingPredictor st_twice(st_config);
    st_once.train(mostly_taken);
    st_twice.train(mostly_not_taken);
    st_twice.train(mostly_taken);
    EXPECT_TRUE(st_once.presetBit(0b00));
    EXPECT_FALSE(st_twice.presetBit(0b00));

    predictors::ProfilePredictor profile_once;
    predictors::ProfilePredictor profile_twice;
    profile_once.train(mostly_taken);
    profile_twice.train(makeSiteTrace("nt3", kPc, {false, false, false}));
    profile_twice.train(makeSiteTrace("t2", kPc, {true, true}));
    const BranchRecord probe = mostly_taken.conditionalView().front();
    EXPECT_TRUE(profile_once.predict(probe));
    EXPECT_FALSE(profile_twice.predict(probe));

    // The fast path reads the accumulated profile like the reference
    // loop does.
    const TraceBuffer train_a = makeRandomTrace(21);
    const TraceBuffer train_b = makeOverlappingTrace(train_a, 22);
    const TraceBuffer test = makeOverlappingTrace(train_b, 23);
    for (const char *scheme : kTrainedSchemes) {
        const auto fast = predictors::makePredictor(scheme);
        const auto reference = predictors::makePredictor(scheme);
        for (core::BranchPredictor *predictor :
             {fast.get(), reference.get()}) {
            predictor->train(train_a);
            predictor->train(train_b);
        }
        const AccuracyCounter fast_acc = measure(*fast, test);
        const AccuracyCounter ref_acc = measureReference(*reference, test);
        EXPECT_EQ(fast_acc.hits(), ref_acc.hits()) << scheme;
        EXPECT_EQ(fast_acc.total(), ref_acc.total()) << scheme;
        EXPECT_EQ(stateProbe(*fast, test), stateProbe(*reference, test))
            << scheme;
    }
}

/** Everything one measured run leaves to compare. */
struct RunOutcome
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    std::vector<std::uint8_t> capture;
    std::string metrics;
    std::string checkpoint;

    bool operator==(const RunOutcome &other) const = default;
};

std::string
checkpointBytes(const core::BranchPredictor &predictor)
{
    std::ostringstream os;
    return predictor.saveCheckpoint(os) ? os.str() : std::string();
}

/** A run of @p trace through simulateBatch in @p chunk-record chunks. */
RunOutcome
chunkedRun(core::BranchPredictor &predictor, const TraceBuffer &trace,
           std::size_t chunk)
{
    RunOutcome outcome;
    outcome.capture.assign(trace.conditionalCount(), 0xee);
    AccuracyCounter accuracy;
    accuracy.captureInto(outcome.capture.data());
    trace::BufferChunkStream stream(trace, chunk);
    while (const trace::TraceChunk *next = stream.next())
        predictor.simulateBatch(next->view, accuracy);
    outcome.hits = accuracy.hits();
    outcome.total = accuracy.total();
    outcome.metrics = metricsJson(predictor, accuracy, trace);
    outcome.checkpoint = checkpointBytes(predictor);
    return outcome;
}

/** The same run through the per-record reference loop. */
RunOutcome
referenceRun(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    RunOutcome outcome;
    AccuracyCounter accuracy;
    for (const BranchRecord &record : trace.conditionalView()) {
        const bool correct = predictor.predict(record) == record.taken;
        accuracy.record(correct);
        outcome.capture.push_back(correct ? 1 : 0);
        predictor.update(record);
    }
    outcome.hits = accuracy.hits();
    outcome.total = accuracy.total();
    outcome.metrics = metricsJson(predictor, accuracy, trace);
    outcome.checkpoint = checkpointBytes(predictor);
    return outcome;
}

/**
 * Runs @p first then @p second through fresh predictors from @p make
 * at chunk sizes 1, 777 and 65536 and holds every state to the
 * reference loop: a fresh (cold) predictor, the same predictor on a
 * second trace (warm), a predictor restored from the reference's
 * checkpoint after @p first (restored warm), and one restored from a
 * fresh predictor's checkpoint (restored cold). With 1-record chunks
 * only the first record sees a cold table; 777 puts chunk edges off
 * the 64-record outcome words; 65536 spans the whole trace.
 */
template <typename Make>
void
expectChunkedStatesMatchReference(const Make &make,
                                  const TraceBuffer &first,
                                  const TraceBuffer &second)
{
    const auto reference = make();
    const std::string cold_checkpoint = checkpointBytes(*reference);
    const RunOutcome want_first = referenceRun(*reference, first);
    const RunOutcome want_second = referenceRun(*reference, second);
    ASSERT_GT(want_first.total, 0u) << reference->name();

    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{777}, std::size_t{65536}}) {
        SCOPED_TRACE(reference->name() + " chunk=" +
                     std::to_string(chunk));
        const auto fast = make();
        EXPECT_EQ(chunkedRun(*fast, first, chunk), want_first)
            << "cold";
        EXPECT_EQ(chunkedRun(*fast, second, chunk), want_second)
            << "warm, same predictor";

        if (want_first.checkpoint.empty())
            continue; // no checkpoint support (Static Training)
        const auto restored_warm = make();
        std::istringstream warm(want_first.checkpoint);
        ASSERT_TRUE(restored_warm->loadCheckpoint(warm));
        EXPECT_EQ(chunkedRun(*restored_warm, second, chunk),
                  want_second)
            << "restored warm checkpoint";

        const auto restored_cold = make();
        std::istringstream cold(cold_checkpoint);
        ASSERT_TRUE(restored_cold->loadCheckpoint(cold));
        EXPECT_EQ(chunkedRun(*restored_cold, first, chunk), want_first)
            << "restored cold checkpoint";
    }
}

TEST(SimulateBatchFuzz, AhrtColdWarmAndRestoredStatesMatchReference)
{
    // A cold AHRT runs the lane pass over the trace's resolution; a
    // warm one (a second batch on the same predictor, or a restored
    // warm checkpoint) takes the AoS loop; a restored checkpoint of a
    // fresh predictor is cold again.
    const char *const schemes[] = {
        "AT(AHRT(64,6SR),PT(2^6,A2),)",
        "AT(AHRT(32,6SR),PT(2^6,LT),)",
        "LS(AHRT(64,A2),,)",
        "LS(AHRT(32,LT),,)",
        "ST(AHRT(64,6SR),PT(2^6,PB),Diff)",
        "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(32,A2),,),CT(2^6))",
    };
    const TraceBuffer train = makeRandomTrace(41, 6000);
    const TraceBuffer first = makeOverlappingTrace(train, 42);
    const TraceBuffer second = makeOverlappingTrace(first, 43);
    for (const char *scheme : schemes) {
        expectChunkedStatesMatchReference(
            [&] {
                auto predictor = predictors::makePredictor(scheme);
                if (predictor->needsTraining())
                    predictor->train(train);
                return predictor;
            },
            first, second);
    }
}

TEST(SimulateBatchFuzz, LanePassRegistersCarryAcrossBatches)
{
    // The other lane passes keep their first-level registers in a
    // dense copy or a local for the batch; what they write back must
    // carry into the next chunk, the next trace and the checkpoint.
    const TraceBuffer first = makeRandomTrace(44, 6000);
    const TraceBuffer second = makeOverlappingTrace(first, 45);
    for (const char *scheme :
         {"AT(IHRT(,6SR),PT(2^6,A2),)", "AT(HHRT(64,6SR),PT(2^6,A3),)",
          "GSH(6,A2)"}) {
        expectChunkedStatesMatchReference(
            [&] { return predictors::makePredictor(scheme); }, first,
            second);
    }
    for (const core::HistoryScope history :
         {core::HistoryScope::Global, core::HistoryScope::PerAddress,
          core::HistoryScope::PerSet}) {
        core::GeneralizedConfig config;
        config.historyScope = history;
        config.patternScope = core::PatternScope::Global;
        config.historyBits = 6;
        expectChunkedStatesMatchReference(
            [&]() -> std::unique_ptr<core::BranchPredictor> {
                return std::make_unique<
                    core::GeneralizedTwoLevelPredictor>(config);
            },
            first, second);
    }
}

TEST(SimulateBatchFuzz, SweepAhrtCellTakesTheColdLanePass)
{
    // The cold lane pass and the AoS loop are bit-identical, so a
    // silent fallback would pass every equality test above. The
    // resolution is only ever requested by the cold pass: after a
    // sweep over an AHRT scheme every trace must hold one for that
    // geometry (64 entries, 4 ways: 16 sets; micro88 drops 2 bits).
    harness::BenchmarkSuite suite(3000);
    const std::vector<std::string> schemes{
        "AT(AHRT(64,6SR),PT(2^6,A2),)", "LS(AHRT(64,A2),,)"};
    for (const std::string &benchmark : suite.benchmarks()) {
        EXPECT_FALSE(suite.testTrace(benchmark)
                         .predecoded()
                         ->hasAhrtResolution(2, 16, 4))
            << benchmark;
    }
    harness::runSweep(suite, "cold-path", schemes, {}, 2);
    for (const std::string &benchmark : suite.benchmarks()) {
        EXPECT_TRUE(suite.testTrace(benchmark)
                        .predecoded()
                        ->hasAhrtResolution(2, 16, 4))
            << benchmark;
    }
}

TEST(SimulateBatchFuzz, EmptyTraceYieldsZeroAccuracyNotNaN)
{
    // End-to-end face of the AccuracyCounter divide-by-zero guard: a
    // trace with no conditional branches measures as 0.0 everywhere.
    TraceBuffer empty("empty");
    TwoLevelConfig config;
    TwoLevelPredictor predictor(config);
    const AccuracyCounter accuracy = measure(predictor, empty);
    EXPECT_EQ(accuracy.total(), 0u);
    EXPECT_EQ(accuracy.accuracy(), 0.0);
    EXPECT_EQ(accuracy.accuracyPercent(), 0.0);
    EXPECT_EQ(accuracy.missPercent(), 0.0);
}

} // namespace
} // namespace tlat
