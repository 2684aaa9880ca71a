/**
 * @file
 * serve-tenants: 8 tenants over the nine mirrors, served by
 * serve::ServeEngine with nproc - 2 shard workers (see serveShards)
 * and one producer thread (this one), so the busy-polling workers and
 * the producer fit on the cores. Throughput comes from a closed loop
 * at saturation with latency tracking off; latency from an open loop
 * of requests at a fixed offered rate with tracking on. Tracking
 * reads the clock per record, which is why the two are never
 * measured in the same phase.
 */

#include <algorithm>
#include <iostream>
#include <sstream>

#include "core/scheme_config.hh"
#include "predictors/scheme_factory.hh"
#include "serve/serve_engine.hh"
#include "sim/simulator.hh"
#include "trace/predecode.hh"
#include "util/json_writer.hh"
#include "util/random.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace tlat;

constexpr const char *kScheme = "AT(AHRT(512,12SR),PT(2^12,A2),)";
constexpr unsigned kTenants = 8;
constexpr std::size_t kBatchRecords = 256;
/** Offered load of the open loop, records per second. */
constexpr double kOfferedRate = 3e6;
/** Measured rounds per engine, after its warm-up round. */
constexpr int kRoundsPerSession = 3;
/** Turns each phase takes in a run. */
constexpr int kSlices = 5;
/** Set-up repetitions whose median is setup_s (~0.1 s each). */
constexpr int kSetupRepeats = 21;

/**
 * Bounds of the seeded span sizes, records: up to eight micro-batches.
 * Both loops push the same spans; in the open loop each is a request.
 */
constexpr std::size_t kSpanMin = 64;
constexpr std::size_t kSpanMax = 2048;
/**
 * Spans per block of evenly spaced sizes. The seed shuffles each
 * block, so every seed offers the same size distribution: drawn
 * sizes moved the request p50 by a few per cent from seed to seed.
 */
constexpr std::size_t kSizeBlock = 64;

core::SchemeConfig
schemeConfig()
{
    return *core::SchemeConfig::parse(kScheme);
}

struct Tenant
{
    std::string name;
    trace::TraceBuffer trace;
};

/** One producer call: records [begin, begin + count) of a tenant. */
struct Slice
{
    std::size_t tenant = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
};

/** Offline twin of a tenant: its report and checkpoint bytes. */
struct Offline
{
    serve::TenantReport report;
    std::string checkpoint;
};

/**
 * The tenants cycle over the mirrors in paper order; the seed permutes
 * which tenant gets which. The set of traces is the same for every
 * seed, so only the shard grouping and the span sizes change with it.
 */
std::vector<std::string>
tenantMirrors(std::uint64_t seed)
{
    const std::vector<std::string> names = workloads::workloadNames();
    std::vector<std::string> mirrors;
    for (unsigned t = 0; t < kTenants; ++t)
        mirrors.push_back(names[t % names.size()]);
    return shuffled(std::move(mirrors), seed);
}

/**
 * Every tenant gets the same number of records, so the three shards
 * carry the same load whichever mirrors the seed hands them.
 */
std::vector<Tenant>
buildTenants(const RunOptions &options, Tracer &tracer)
{
    std::vector<Tenant> tenants;
    const std::vector<std::string> mirrors =
        tenantMirrors(options.seed);
    for (unsigned t = 0; t < kTenants; ++t) {
        const Tracer::Scope span(tracer, "sim.run");
        const isa::Program program =
            workloads::makeWorkload(mirrors[t])->buildTest();
        Tenant tenant{mirrors[t] + "#" + std::to_string(t),
                      trace::TraceBuffer(program.name)};
        tenant.trace.reserve(options.size.serveRecords);
        const sim::BranchSink sink =
            [&](const trace::BranchRecord &record) {
                tenant.trace.append(record);
                return tenant.trace.size() < options.size.serveRecords;
            };
        sim::Simulator simulator(program);
        sim::SimOptions sim_options;
        sim_options.restartOnHalt = true;
        tenant.trace.mix() = simulator.run(sink, sim_options).mix;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

/** Round-robin over the tenants still holding records, seeded sizes. */
std::vector<Slice>
buildSchedule(const std::vector<Tenant> &tenants, std::uint64_t seed)
{
    Rng rng(seed ^ 0x5e7e5e7eULL);
    std::vector<std::size_t> block;
    for (std::size_t j = 0; j < kSizeBlock; ++j)
        block.push_back(kSpanMin +
                        (kSpanMax - kSpanMin) * j / (kSizeBlock - 1));
    std::vector<std::size_t> sizes;
    const auto nextSize = [&] {
        if (sizes.empty()) {
            sizes = block;
            for (std::size_t i = sizes.size(); i > 1; --i)
                std::swap(sizes[i - 1], sizes[rng.nextBelow(i)]);
        }
        const std::size_t size = sizes.back();
        sizes.pop_back();
        return size;
    };
    std::vector<std::size_t> next(tenants.size(), 0);
    std::vector<Slice> schedule;
    bool advanced = true;
    while (advanced) {
        advanced = false;
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const std::size_t size = tenants[t].trace.size();
            if (next[t] >= size)
                continue;
            const std::size_t take =
                std::min<std::size_t>(nextSize(), size - next[t]);
            schedule.push_back(Slice{t, next[t], take});
            next[t] += take;
            advanced = true;
        }
    }
    return schedule;
}

std::string
reportJson(const serve::TenantReport &report)
{
    std::ostringstream os;
    JsonWriter json(os);
    serve::ServeEngine::writeTenantJson(json, report);
    return os.str();
}

/** The offline twin, built as tests/test_serve.cc builds it. */
std::vector<Offline>
offlineTwins(const std::vector<Tenant> &tenants)
{
    std::vector<Offline> twins;
    for (const Tenant &tenant : tenants) {
        auto predictor = predictors::makePredictor(schemeConfig());
        predictor->reset();
        Offline twin;
        twin.report.records = tenant.trace.size();
        predictor->simulateBatch(tenant.trace.records(),
                                 twin.report.accuracy);
        predictor->collectMetrics(twin.report.metrics);
        std::ostringstream checkpoint;
        predictor->saveCheckpoint(checkpoint);
        twin.checkpoint = checkpoint.str();
        twins.push_back(std::move(twin));
    }
    return twins;
}

std::uint64_t
totalRecords(const std::vector<Tenant> &tenants)
{
    std::uint64_t records = 0;
    for (const Tenant &tenant : tenants)
        records += tenant.trace.size();
    return records;
}

unsigned
serveShards()
{
    // nproc - 2 workers plus the producer leave one core free. With
    // nproc - 1, whatever else the host runs preempts a busy-polling
    // thread: a third of the open-loop rounds then had millisecond
    // p99 outliers, and throughput moved by +-15% between runs. The
    // single producer is the bottleneck either way, so the median rate
    // is the same.
    const unsigned cpus = availableCpus();
    return cpus > 2 ? cpus - 2 : 1;
}

serve::ServeConfig
serveConfig(bool track_latency)
{
    serve::ServeConfig config;
    config.shards = serveShards();
    config.batchRecords = kBatchRecords;
    config.trackLatency = track_latency;
    return config;
}

struct OpenLoopStats
{
    /** Request latency percentiles. */
    double p50Us = 0.0;
    double p90Us = 0.0;
    double p99Us = 0.0;
    std::size_t requests = 0;
    double lagP99Us = 0.0;
    /** Per-record enqueue-to-applied latency, from the engine. */
    double recordP50Us = 0.0;
};

/**
 * One long-running engine. Each round registers a fresh copy of every
 * tenant and serves its whole trace, so every round can be checked
 * against the offline twins while the engine itself stays warm.
 */
class ServeSession
{
  public:
    explicit ServeSession(bool track_latency)
        : engine_(schemeConfig(), serveConfig(track_latency))
    {
    }

    /** Closed loop at saturation; seconds from first ingest to drain. */
    double
    closedRound(const std::vector<Tenant> &tenants,
                const std::vector<Slice> &schedule, Tracer &tracer)
    {
        startRound(tenants);
        const double start = nowSeconds();
        for (const Slice &slice : schedule) {
            const Tracer::Scope span(tracer, "serve.ingest");
            ingest(tenants, slice);
        }
        {
            const Tracer::Scope span(tracer, "serve.drain");
            engine_.drain();
        }
        return nowSeconds() - start;
    }

    /**
     * Open loop of requests: request i is slice i, due when the
     * records before it have been offered at @p rate. The producer
     * spins until it is due, ingests it and drains the engine. Its
     * latency runs from when it was due to when the drain returns, so
     * a late start counts against the engine; how late the producer
     * started is the generator lag.
     */
    OpenLoopStats
    openRound(const std::vector<Tenant> &tenants,
              const std::vector<Slice> &schedule, double rate)
    {
        startRound(tenants);
        std::vector<double> latencies;
        std::vector<double> lags;
        latencies.reserve(schedule.size());
        lags.reserve(schedule.size());
        double offered = 0.0;
        const double start = nowSeconds();
        for (const Slice &slice : schedule) {
            const double due = start + offered / rate;
            double now = nowSeconds();
            while (now < due)
                now = nowSeconds();
            lags.push_back((now - due) * 1e6);
            ingest(tenants, slice);
            engine_.drain();
            latencies.push_back((nowSeconds() - due) * 1e6);
            offered += static_cast<double>(slice.count);
        }
        const std::vector<std::uint64_t> records =
            engine_.takeLatenciesNs();
        std::vector<double> record_us(records.begin(), records.end());
        OpenLoopStats stats;
        stats.p50Us = quantile(latencies, 0.50);
        stats.p90Us = quantile(latencies, 0.90);
        stats.p99Us = quantile(latencies, 0.99);
        stats.requests = latencies.size();
        stats.lagP99Us = quantile(lags, 0.99);
        stats.recordP50Us = quantile(record_us, 0.50) / 1000.0;
        return stats;
    }

    /** Every tenant of the last round must equal its offline twin. */
    void
    check(const std::vector<Offline> &twins, Result &result) const
    {
        for (std::size_t t = 0; t < handles_.size(); ++t) {
            const serve::TenantReport served =
                engine_.tenantReport(handles_[t]);
            serve::TenantReport offline = twins[t].report;
            offline.name = served.name;
            std::string snapshot;
            engine_.snapshotTenant(handles_[t], &snapshot);
            result.check(reportJson(served) == reportJson(offline) &&
                             snapshot == twins[t].checkpoint,
                         "served tenant " + served.name +
                             " differs from its offline twin");
        }
    }

  private:
    void
    startRound(const std::vector<Tenant> &tenants)
    {
        // Round-robin placement: hashing the seed-permuted names gives
        // each seed a different shard balance, and the rate would
        // measure the seed's luck.
        ++round_;
        // Drop the latency samples of earlier rounds: left in place,
        // the engine's store grows, and its reallocations stall the
        // shard workers in later rounds.
        engine_.takeLatenciesNs();
        handles_.clear();
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            handles_.push_back(engine_.addTenant(
                tenants[t].name + "/r" + std::to_string(round_),
                static_cast<unsigned>(t % engine_.shards())));
        }
    }

    void
    ingest(const std::vector<Tenant> &tenants, const Slice &slice)
    {
        const auto &records = tenants[slice.tenant].trace.records();
        engine_.ingestSpan(handles_[slice.tenant],
                           {records.data() + slice.begin, slice.count});
    }

    serve::ServeEngine engine_;
    std::vector<std::size_t> handles_;
    unsigned round_ = 0;
};

} // namespace

void
runServeTenants(const RunOptions &options, Result &result)
{
    Tracer off(false);
    std::vector<Tenant> tenants;
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        tenants.clear();
        const double start = nowSeconds();
        tenants = buildTenants(options, off);
        setup.push_back(nowSeconds() - start);
    }
    const std::vector<Offline> twins = offlineTwins(tenants);
    const std::vector<Slice> schedule =
        buildSchedule(tenants, options.seed);
    const double records = static_cast<double>(totalRecords(tenants));

    // Each phase runs a series of short sessions, each a fresh engine
    // with fresh worker threads whose first round only warms it up
    // (buffers, page faults). Where the scheduler puts the threads
    // moves per-record latency by +-25%; many sessions per run
    // average over it.
    // Phase (a): closed loop, tracking off -> throughput.
    std::vector<double> rates;
    const auto closedSession = [&] {
        ServeSession session(false);
        session.closedRound(tenants, schedule, off);
        session.check(twins, result);
        for (int round = 0; round < kRoundsPerSession; ++round) {
            rates.push_back(records /
                            session.closedRound(tenants, schedule, off));
            session.check(twins, result);
        }
    };

    // Phase (b): open loop of requests at a fixed offered rate,
    // tracking on -> latency. Percentiles per round; the run reports
    // their median.
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> p99;
    std::vector<double> lag;
    std::vector<double> record_p50;
    std::size_t requests = 0;
    const auto openSession = [&] {
        ServeSession session(true);
        session.openRound(tenants, schedule, kOfferedRate);
        session.check(twins, result);
        for (int round = 0; round < kRoundsPerSession; ++round) {
            const OpenLoopStats stats =
                session.openRound(tenants, schedule, kOfferedRate);
            p50.push_back(stats.p50Us);
            p90.push_back(stats.p90Us);
            p99.push_back(stats.p99Us);
            lag.push_back(stats.lagP99Us);
            record_p50.push_back(stats.recordP50Us);
            requests += stats.requests;
            session.check(twins, result);
        }
    };

    // The phases take turns, 30% and 70% of each slice of the run, so
    // a slow patch of the host moves a share of each phase's rounds
    // rather than a whole phase.
    const double start = nowSeconds();
    for (int slice = 1; slice <= kSlices; ++slice) {
        const double slice_end =
            start + options.seconds * slice / kSlices;
        const double closed_end =
            nowSeconds() + 0.3 * (slice_end - nowSeconds());
        do
            closedSession();
        while (nowSeconds() < closed_end);
        do
            openSession();
        while (nowSeconds() < slice_end);
    }

    result.metric("setup_s", median(setup), "s");
    result.metric("peak_rss_mib", peakRssMib(), "MiB");
    result.metric("records_per_s", median(rates), "1/s");
    result.metric("p50_us", median(p50), "us");
    result.metric("p90_us", median(p90), "us");
    std::cout << "{\"detail\": {\"workload\": \"serve-tenants\", "
                 "\"shards\": "
              << serveShards()
              << ", \"records_per_round\": " << totalRecords(tenants)
              << ", \"throughput_rounds\": " << rates.size()
              << ", \"latency_rounds\": " << p99.size()
              << ", \"latency_samples\": " << requests
              << ", \"offered_records_per_s\": " << kOfferedRate
              << ", \"p99_us\": " << median(p99)
              << ", \"gen_lag_p99_us\": " << median(lag)
              << ", \"record_p50_us\": " << median(record_p50) << "}}\n";
}

void
ladderServeTenants(const RunOptions &options, Result &result,
                   Tracer &tracer)
{
    const int repeats = ladderRepeats(options);
    Tracer off(false);
    const std::vector<Tenant> reference = buildTenants(options, off);
    const std::vector<Offline> twins = offlineTwins(reference);
    const std::vector<Slice> schedule =
        buildSchedule(reference, options.seed);
    const double records = static_cast<double>(totalRecords(reference));

    // Span ladder: one set-up plus one saturated round of a warm
    // engine per root.
    ServeSession session(false);
    session.closedRound(reference, schedule, off);
    std::vector<double> untraced;
    std::vector<double> untraced_rates;
    alternate(
        repeats,
        [&] {
            const double start = nowSeconds();
            const std::vector<Tenant> tenants =
                buildTenants(options, off);
            untraced_rates.push_back(
                records / session.closedRound(tenants, schedule, off));
            untraced.push_back(nowSeconds() - start);
            session.check(twins, result);
        },
        [&] {
            std::vector<Tenant> tenants;
            {
                const Tracer::Scope root(tracer, "serve-tenants");
                tenants = buildTenants(options, tracer);
                session.closedRound(tenants, schedule, tracer);
            }
            session.check(twins, result);
        });
    reportLadder(result, tracer, "serve-tenants", {"sim", "serve"},
                 untraced);
    result.metric("serve.ingest_ns_per_rec",
                  tracer.total("serve.ingest") /
                      (records * repeats) * 1e9,
                  "ns");
    result.metric("serve.drain_ms",
                  median(tracer.durations("serve.drain")) * 1e3, "ms");

    // Offline twin rate: the same records through one predictor per
    // tenant on this thread.
    std::vector<double> offline;
    for (int i = 0; i < repeats; ++i) {
        const double start = nowSeconds();
        for (const Tenant &tenant : reference) {
            auto predictor = predictors::makePredictor(schemeConfig());
            predictor->reset();
            AccuracyCounter accuracy;
            predictor->simulateBatch(tenant.trace.records(), accuracy);
        }
        offline.push_back(records / (nowSeconds() - start));
    }
    result.metric("serve.vs_offline",
                  median(untraced_rates) / median(offline), "ratio");

    std::vector<double> tracked;
    {
        ServeSession tracking(true);
        tracking.closedRound(reference, schedule, off);
        for (int i = 0; i < repeats; ++i) {
            tracked.push_back(
                records / tracking.closedRound(reference, schedule, off));
            tracking.check(twins, result);
        }
    }
    // Phase (b) as the untraced run has it: a fresh engine whose first
    // round only warms it up. A shard worker stalls for milliseconds
    // in about one round of eight, so the median takes more rounds.
    std::vector<double> lag;
    std::vector<double> p99;
    {
        ServeSession open(true);
        open.openRound(reference, schedule, kOfferedRate);
        for (int i = 0; i < 2 * repeats + 1; ++i) {
            const OpenLoopStats stats =
                open.openRound(reference, schedule, kOfferedRate);
            lag.push_back(stats.lagP99Us);
            p99.push_back(stats.p99Us);
            open.check(twins, result);
        }
    }
    result.metric("serve.tracked_records_per_s", median(tracked),
                  "1/s");
    result.metric("serve.gen_lag_p99_us", median(lag), "us");
    result.metric("serve.open_p99_us", median(p99), "us");

    // The shape of one serve flush: 256 conditionals, each slice with
    // a freshly built predecode.
    std::vector<double> batch;
    for (int i = 0; i < repeats; ++i) {
        double branches = 0.0;
        const double start = nowSeconds();
        for (const Tenant &tenant : reference) {
            auto predictor = predictors::makePredictor(schemeConfig());
            predictor->reset();
            AccuracyCounter accuracy;
            const auto conditionals = tenant.trace.conditionalView();
            for (std::size_t at = 0; at < conditionals.size();
                 at += kBatchRecords) {
                const auto slice = conditionals.subspan(
                    at, std::min(kBatchRecords,
                                 conditionals.size() - at));
                const trace::PredecodedView view(
                    slice,
                    std::make_shared<const trace::PredecodedTrace>(
                        slice));
                predictor->simulateBatch(view, accuracy);
            }
            branches += static_cast<double>(accuracy.total());
        }
        batch.push_back((nowSeconds() - start) / branches * 1e9);
    }
    result.metric("core.batch256_ns_per_branch.ahrt", median(batch),
                  "ns");
}

} // namespace perfbench
