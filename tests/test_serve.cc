/**
 * @file
 * Determinism-contract tests for the serve engine: a served stream
 * must leave every tenant in exactly the state an offline simulation
 * of the same trace produces — byte-identical checkpoints and
 * byte-identical metrics JSON — at every shard count, micro-batch
 * size, ring capacity and ingest span size, and tenant warm state
 * must survive snapshot / migrate / restore round trips. The
 * ring/engine TSan CI preset replays these same tests under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/branch_predictor.hh"
#include "core/run_metrics.hh"
#include "core/scheme_config.hh"
#include "predictors/scheme_factory.hh"
#include "serve/serve_engine.hh"
#include "sim/simulator.hh"
#include "trace/trace_buffer.hh"
#include "util/json_writer.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace tlat::serve
{
namespace
{

constexpr const char *kScheme = "AT(AHRT(512,12SR),PT(2^12,A2),)";

core::SchemeConfig
schemeConfig()
{
    const auto config = core::SchemeConfig::parse(kScheme);
    EXPECT_TRUE(config.has_value());
    return *config;
}

/** The tenant workloads every test serves (distinct behaviours). */
std::vector<std::pair<std::string, trace::TraceBuffer>>
tenantTraces(std::uint64_t budget = 4000)
{
    std::vector<std::pair<std::string, trace::TraceBuffer>> traces;
    for (const char *name : {"eqntott", "gcc", "li"}) {
        traces.emplace_back(
            name, sim::collectTrace(
                      workloads::makeWorkload(name)->buildTest(),
                      budget));
    }
    return traces;
}

/**
 * The offline twin of one served tenant: a fresh predictor run over
 * the whole stream through the reference batch API, reported exactly
 * as the engine reports it.
 */
TenantReport
offlineReport(const std::string &name,
              const trace::TraceBuffer &trace)
{
    auto predictor = predictors::makePredictor(schemeConfig());
    predictor->reset();
    TenantReport report;
    report.name = name;
    report.records = trace.size();
    predictor->simulateBatch(trace.records(), report.accuracy);
    predictor->collectMetrics(report.metrics);
    return report;
}

/** Offline checkpoint bytes after the whole stream (or empty). */
std::string
offlineCheckpoint(const trace::TraceBuffer &trace)
{
    auto predictor = predictors::makePredictor(schemeConfig());
    predictor->reset();
    AccuracyCounter accuracy;
    predictor->simulateBatch(trace.records(), accuracy);
    std::ostringstream os(std::ios::binary);
    EXPECT_TRUE(predictor->saveCheckpoint(os));
    return os.str();
}

/**
 * Ingests every tenant's stream interleaved in fixed blocks (the
 * default block size is deliberately not a divisor of anything) and
 * drains.
 */
void
ingestInterleaved(
    ServeEngine &engine,
    const std::vector<std::pair<std::string, trace::TraceBuffer>>
        &traces,
    const std::vector<std::size_t> &handles,
    std::size_t block = 173)
{
    std::vector<std::size_t> next(traces.size(), 0);
    bool advanced = true;
    while (advanced) {
        advanced = false;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const auto &records = traces[t].second.records();
            if (next[t] >= records.size())
                continue;
            const std::size_t take =
                std::min(block, records.size() - next[t]);
            engine.ingestSpan(handles[t],
                              {records.data() + next[t], take});
            next[t] += take;
            advanced = true;
        }
    }
    engine.drain();
}

/**
 * The full tlat-serve-metrics-v1 document built offline, following
 * the documented layout — the byte-level twin writeMetricsJson()
 * must reproduce for every serving configuration.
 */
std::string
offlineMetricsDocument(
    const std::vector<std::pair<std::string, trace::TraceBuffer>>
        &traces)
{
    std::vector<TenantReport> reports;
    for (const auto &[name, trace] : traces)
        reports.push_back(offlineReport(name, trace));
    std::sort(reports.begin(), reports.end(),
              [](const TenantReport &a, const TenantReport &b) {
                  return a.name < b.name;
              });
    std::uint64_t total_records = 0;
    AccuracyCounter totals;
    for (const TenantReport &report : reports) {
        total_records += report.records;
        totals.merge(report.accuracy);
    }
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.member("schema", kServeMetricsSchema);
    json.member("scheme", schemeConfig().text());
    json.key("totals").beginObject();
    json.member("tenants",
                static_cast<std::uint64_t>(reports.size()));
    json.member("records", total_records);
    json.member("conditional_branches", totals.total());
    json.member("hits", totals.hits());
    json.member("misses", totals.misses());
    json.endObject();
    json.key("tenants").beginArray();
    for (const TenantReport &report : reports)
        ServeEngine::writeTenantJson(json, report);
    json.endArray();
    json.endObject();
    os << "\n";
    return os.str();
}

/** The shard-count x batch-size grid the acceptance criteria pin. */
struct ServeShape
{
    unsigned shards;
    std::size_t batchRecords;
};

class ServeDeterminism : public ::testing::TestWithParam<ServeShape>
{
};

TEST_P(ServeDeterminism, ServedEqualsOfflineByteForByte)
{
    const ServeShape &shape = GetParam();
    const auto traces = tenantTraces();

    ServeConfig config;
    config.shards = shape.shards;
    config.batchRecords = shape.batchRecords;
    ServeEngine engine(schemeConfig(), config);
    std::vector<std::size_t> handles;
    for (const auto &[name, trace] : traces)
        handles.push_back(engine.addTenant(name));
    ingestInterleaved(engine, traces, handles);

    // Checkpoints: byte-identical to the offline twin per tenant.
    for (std::size_t t = 0; t < traces.size(); ++t) {
        std::string served;
        ASSERT_TRUE(engine.snapshotTenant(handles[t], &served));
        EXPECT_EQ(served, offlineCheckpoint(traces[t].second))
            << "checkpoint diverged for tenant " << traces[t].first
            << " at shards=" << shape.shards
            << " batch=" << shape.batchRecords;
    }

    // Metrics document: byte-identical to the offline-built twin
    // (and therefore identical across every grid point).
    EXPECT_EQ(engine.metricsJsonString(),
              offlineMetricsDocument(traces))
        << "metrics JSON diverged at shards=" << shape.shards
        << " batch=" << shape.batchRecords;
}

INSTANTIATE_TEST_SUITE_P(
    ShardBatchGrid, ServeDeterminism,
    ::testing::Values(ServeShape{1, 1}, ServeShape{1, 64},
                      ServeShape{1, 4096}, ServeShape{4, 1},
                      ServeShape{4, 64}, ServeShape{4, 4096},
                      ServeShape{8, 1}, ServeShape{8, 64},
                      ServeShape{8, 4096}),
    [](const ::testing::TestParamInfo<ServeShape> &info) {
        return "shards" + std::to_string(info.param.shards) +
               "_batch" + std::to_string(info.param.batchRecords);
    });

/**
 * Ring-slot boundaries: span sizes around kSlotRecords (one short,
 * exact, one over, two slots less one, and a long multi-slot span),
 * rings from the two-slot minimum to the default, and per-record
 * versus batched flushes.
 */
struct SlotShape
{
    std::size_t span;
    std::size_t ringCapacity;
    std::size_t batchRecords;
};

class ServeSlotBoundaries : public ::testing::TestWithParam<SlotShape>
{
};

TEST_P(ServeSlotBoundaries, ServedEqualsOfflineByteForByte)
{
    const SlotShape &shape = GetParam();
    const auto traces = tenantTraces();

    ServeConfig config;
    config.shards = 2;
    config.batchRecords = shape.batchRecords;
    config.ringCapacity = shape.ringCapacity;
    ServeEngine engine(schemeConfig(), config);
    std::vector<std::size_t> handles;
    for (const auto &[name, trace] : traces)
        handles.push_back(engine.addTenant(name));
    ingestInterleaved(engine, traces, handles, shape.span);

    for (std::size_t t = 0; t < traces.size(); ++t) {
        std::string served;
        ASSERT_TRUE(engine.snapshotTenant(handles[t], &served));
        EXPECT_EQ(served, offlineCheckpoint(traces[t].second))
            << "checkpoint diverged for tenant " << traces[t].first;
    }
    EXPECT_EQ(engine.metricsJsonString(),
              offlineMetricsDocument(traces));
}

std::vector<SlotShape>
slotShapes()
{
    constexpr std::size_t kSpans[] = {1, 63, 64, 65, 127, 4097};
    constexpr std::size_t kRings[] = {2, 64, 4096};
    constexpr std::size_t kBatches[] = {1, 256};
    std::vector<SlotShape> shapes;
    for (const std::size_t span : kSpans)
        for (const std::size_t ring : kRings)
            for (const std::size_t batch : kBatches)
                shapes.push_back({span, ring, batch});
    return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    SlotBoundaryGrid, ServeSlotBoundaries,
    ::testing::ValuesIn(slotShapes()),
    [](const ::testing::TestParamInfo<SlotShape> &info) {
        return "span" + std::to_string(info.param.span) + "_ring" +
               std::to_string(info.param.ringCapacity) + "_batch" +
               std::to_string(info.param.batchRecords);
    });

TEST(ServeEngineTest, TrackedLatencyHasOneSamplePerRecord)
{
    // Conditionals are stamped at flush, the other classes once per
    // slot; either way every ingested record yields one sample.
    const auto traces = tenantTraces();
    ServeConfig config;
    config.shards = 2;
    config.trackLatency = true;
    ServeEngine engine(schemeConfig(), config);
    std::vector<std::size_t> handles;
    std::size_t records = 0;
    for (const auto &[name, trace] : traces) {
        handles.push_back(engine.addTenant(name));
        records += trace.size();
    }
    ingestInterleaved(engine, traces, handles, 65);
    EXPECT_EQ(engine.takeLatenciesNs().size(), records);
    EXPECT_TRUE(engine.takeLatenciesNs().empty());
}

TEST(ServeEngineTest, AccuracyMatchesReferencePredictUpdateLoop)
{
    const auto traces = tenantTraces();
    ServeConfig config;
    config.shards = 2;
    ServeEngine engine(schemeConfig(), config);
    std::vector<std::size_t> handles;
    for (const auto &[name, trace] : traces)
        handles.push_back(engine.addTenant(name));
    ingestInterleaved(engine, traces, handles);

    for (std::size_t t = 0; t < traces.size(); ++t) {
        auto reference = predictors::makePredictor(schemeConfig());
        reference->reset();
        AccuracyCounter expected;
        for (const trace::BranchRecord &record :
             traces[t].second.records()) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            expected.record(reference->predict(record) ==
                            record.taken);
            reference->update(record);
        }
        const TenantReport report =
            engine.tenantReport(handles[t]);
        EXPECT_EQ(report.accuracy.hits(), expected.hits());
        EXPECT_EQ(report.accuracy.total(), expected.total());
        EXPECT_EQ(report.records, traces[t].second.size());
    }
}

TEST(ServeEngineTest, SnapshotMigrateRestoreRoundTrip)
{
    const auto traces = tenantTraces();
    const auto &[name, trace] = traces[1]; // gcc
    const auto &records = trace.records();
    const std::size_t half = records.size() / 2;

    ServeConfig config;
    config.shards = 4;
    ServeEngine engine(schemeConfig(), config);
    const std::size_t tenant = engine.addTenant(name, 0);
    ASSERT_EQ(engine.tenantShard(tenant), 0u);

    // First half, then snapshot the warm state.
    engine.ingestSpan(tenant, {records.data(), half});
    engine.drain();
    std::string half_state;
    ASSERT_TRUE(engine.snapshotTenant(tenant, &half_state));

    // Migrate across shards — the engine moves the tenant *through*
    // the checkpoint format, so this also proves completeness.
    ASSERT_TRUE(engine.migrateTenant(tenant, 3));
    EXPECT_EQ(engine.tenantShard(tenant), 3u);

    // Second half on the new shard; final state must equal the
    // offline full-stream twin bit for bit.
    engine.ingestSpan(tenant,
                      {records.data() + half,
                       records.size() - half});
    engine.drain();
    std::string final_state;
    ASSERT_TRUE(engine.snapshotTenant(tenant, &final_state));
    EXPECT_EQ(final_state, offlineCheckpoint(trace));

    // Restore path: hand the mid-stream snapshot to a *fresh* engine
    // and replay the second half there — same final bytes again.
    ServeEngine fresh(schemeConfig(), config);
    const std::size_t adopted = fresh.addTenant(name, 2);
    ASSERT_TRUE(fresh.restoreTenant(adopted, half_state));
    fresh.ingestSpan(adopted, {records.data() + half,
                               records.size() - half});
    fresh.drain();
    std::string adopted_state;
    ASSERT_TRUE(fresh.snapshotTenant(adopted, &adopted_state));
    EXPECT_EQ(adopted_state, final_state);
}

TEST(ServeEngineTest, RestoreRejectsCorruptSnapshot)
{
    ServeConfig config;
    ServeEngine engine(schemeConfig(), config);
    const std::size_t tenant = engine.addTenant("victim");
    std::string snapshot;
    ASSERT_TRUE(engine.snapshotTenant(tenant, &snapshot));
    // Framing violations the checkpoint contract must reject: a
    // truncated stream (missing end sentinel) and a bad magic.
    EXPECT_FALSE(engine.restoreTenant(
        tenant, snapshot.substr(0, snapshot.size() - 1)));
    std::string corrupt = snapshot;
    corrupt[0] ^= 0x5a;
    EXPECT_FALSE(engine.restoreTenant(tenant, corrupt));
    // The tenant is untouched (checkpoint loads are atomic).
    std::string after;
    ASSERT_TRUE(engine.snapshotTenant(tenant, &after));
    EXPECT_EQ(after, snapshot);
}

TEST(ServeConfigTest, ValidateNamesTheFirstBadKnob)
{
    ServeConfig good;
    EXPECT_TRUE(good.validate().empty());

    ServeConfig zero_shards;
    zero_shards.shards = 0;
    EXPECT_FALSE(zero_shards.validate().empty());

    ServeConfig zero_batch;
    zero_batch.batchRecords = 0;
    EXPECT_FALSE(zero_batch.validate().empty());

    ServeConfig bad_ring;
    bad_ring.ringCapacity = 100;
    EXPECT_FALSE(bad_ring.validate().empty());
}

TEST(ServeEngineTest, HashPlacementIsStableAndInRange)
{
    ServeConfig config;
    config.shards = 4;
    ServeEngine a(schemeConfig(), config);
    ServeEngine b(schemeConfig(), config);
    for (const char *name : {"alpha", "beta", "gamma", "delta"}) {
        const unsigned shard_a = a.tenantShard(a.addTenant(name));
        const unsigned shard_b = b.tenantShard(b.addTenant(name));
        EXPECT_EQ(shard_a, shard_b) << name;
        EXPECT_LT(shard_a, 4u);
    }
}

} // namespace
} // namespace tlat::serve
