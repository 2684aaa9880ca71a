/**
 * @file
 * trace-stream: the `tlat run SCHEME FILE --json --chunk-records
 * 65536` path. A ~300 MB TLTR file goes through
 * trace::MmapChunkStream, harness::measureStreamWithMetrics and the
 * metrics JSON emit, once with an IHRT and once with an AHRT scheme.
 *
 * The file holds all nine mirrors, 1/9 of the records each, in an
 * order the seed permutes. One mirror per seed would make the rate
 * depend on the seed: per-record cost differs up to 2x between
 * mirrors. Set-up streams the file out through the simulator's
 * branch sink in 64K-record chunks, so it never holds the trace in
 * memory and leaves the timed phase's peak RSS alone.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace tlat;

const std::vector<std::string> kSchemes = {
    "AT(IHRT(,12SR),PT(2^12,A2),)",
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
};
constexpr std::size_t kChunkRecords = 65536;
constexpr const char *kTraceName = "mirrors";
/** Each set-up writes ~300 MB, so fewer repeats than elsewhere. */
constexpr int kSetupRepeats = 3;

std::string
streamPath(const RunOptions &options)
{
    return options.workDir + "/stream-seed" +
           std::to_string(options.seed) + ".tltr";
}

/**
 * Writes the stream file. Returns false when any write failed or the
 * file does not hold exactly streamRecords records.
 */
bool
writeStreamFile(const RunOptions &options, Tracer &tracer)
{
    const std::vector<std::string> order =
        shuffled(workloads::workloadNames(), options.seed);

    const std::uint64_t total = options.size.streamRecords;
    std::ofstream os;
    trace::InstructionMix mix;
    bool ok = false;
    {
        // Truncating the previous file drops its page-cache pages,
        // which is not free at this size.
        const Tracer::Scope span(tracer, "trace.file_open");
        os.open(streamPath(options), std::ios::binary | std::ios::trunc);
        ok = trace::writeBinaryHeader(os, kTraceName, mix, total);
    }
    std::vector<trace::BranchRecord> chunk;
    chunk.reserve(kChunkRecords);
    const auto flush = [&] {
        const Tracer::Scope span(tracer, "trace.encode");
        ok = trace::writeBinaryRecords(os, chunk) && ok;
        chunk.clear();
    };

    std::uint64_t written = 0;
    for (std::size_t m = 0; m < order.size(); ++m) {
        const std::uint64_t quota =
            total / order.size() + (m < total % order.size() ? 1 : 0);
        std::uint64_t taken = 0;
        const sim::BranchSink sink =
            [&](const trace::BranchRecord &record) {
                if (taken >= quota)
                    return false;
                chunk.push_back(record);
                ++taken;
                if (chunk.size() == kChunkRecords)
                    flush();
                return taken < quota;
            };
        const Tracer::Scope span(tracer, "sim.run");
        const isa::Program program =
            workloads::makeWorkload(order[m])->buildTest();
        sim::Simulator simulator(program);
        sim::SimOptions sim_options;
        sim_options.restartOnHalt = true;
        mix.merge(simulator.run(sink, sim_options).mix);
        written += taken;
    }
    if (!chunk.empty())
        flush();
    const Tracer::Scope span(tracer, "trace.file_close");
    // The header went out first with an empty mix; the final mix has
    // the same width, so rewrite it in place.
    os.seekp(0);
    ok = trace::writeBinaryHeader(os, kTraceName, mix, total) && ok;
    os.close();
    return ok && !os.fail() && written == total;
}

/**
 * The benchmark's view of the stream: forwards every call, puts each
 * next() in a span and records how long the consumer spent on each
 * chunk, from requesting it to requesting the one after.
 */
class TimedChunkStream final : public trace::ChunkStream
{
  public:
    TimedChunkStream(trace::ChunkStream &inner, Tracer &tracer,
                     std::vector<double> &chunk_us)
        : inner_(inner), tracer_(tracer), chunk_us_(chunk_us)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    const trace::InstructionMix &
    mix() const override
    {
        return inner_.mix();
    }
    std::uint64_t
    recordCount() const override
    {
        return inner_.recordCount();
    }
    const std::string &
    error() const override
    {
        return inner_.error();
    }
    void
    rewind() override
    {
        last_request_ = 0.0;
        inner_.rewind();
    }

    const trace::TraceChunk *
    next() override
    {
        const double now = nowSeconds();
        if (last_request_ > 0.0)
            chunk_us_.push_back((now - last_request_) * 1e6);
        last_request_ = now;
        const Tracer::Scope span(tracer_, "trace.next");
        return inner_.next();
    }

  private:
    trace::ChunkStream &inner_;
    Tracer &tracer_;
    std::vector<double> &chunk_us_;
    double last_request_ = 0.0;
};

/** One `tlat run SCHEME FILE --json`; false when the stream failed. */
bool
streamRun(const RunOptions &options, const std::string &scheme,
          Tracer &tracer, std::vector<double> &chunk_us,
          std::string &json)
{
    std::unique_ptr<trace::MmapChunkStream> stream;
    std::string error;
    {
        const Tracer::Scope span(tracer, "trace.open");
        stream = trace::MmapChunkStream::open(streamPath(options),
                                              kChunkRecords, &error);
    }
    if (!stream) {
        std::cerr << "perfbench: cannot open stream: " << error << "\n";
        return false;
    }
    std::unique_ptr<core::BranchPredictor> predictor;
    {
        const Tracer::Scope span(tracer, "core.make");
        predictor = predictors::makePredictor(scheme);
        predictor->reset();
    }
    harness::RunMetricsReport report;
    {
        const Tracer::Scope span(tracer, "harness.measure_stream");
        TimedChunkStream timed(*stream, tracer, chunk_us);
        report = harness::measureStreamWithMetrics(*predictor, timed);
    }
    const bool ok = stream->error().empty();
    {
        const Tracer::Scope span(tracer, "harness.json_emit");
        std::ostringstream os;
        harness::writeRunMetricsJson(report, os);
        json = os.str();
    }
    const Tracer::Scope span(tracer, "trace.close");
    stream.reset();
    return ok;
}

/** JSON documents of one pass, parallel to kSchemes. */
using PassJson = std::vector<std::string>;

/** Both schemes once; false when a stream failed. */
bool
streamPass(const RunOptions &options, Tracer &tracer,
           std::vector<double> &chunk_us, PassJson &json)
{
    json.assign(kSchemes.size(), {});
    bool ok = true;
    for (std::size_t s = 0; s < kSchemes.size(); ++s)
        ok = streamRun(options, kSchemes[s], tracer, chunk_us,
                       json[s]) &&
             ok;
    return ok;
}

/** Whole-buffer measureWithMetrics JSON of every scheme. */
PassJson
referenceJson(const RunOptions &options)
{
    std::string error;
    const auto buffer = trace::loadFromFile(streamPath(options), &error);
    PassJson json(kSchemes.size());
    if (!buffer) {
        std::cerr << "perfbench: cannot load stream file: " << error
                  << "\n";
        return json;
    }
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        auto predictor = predictors::makePredictor(kSchemes[s]);
        predictor->reset();
        std::ostringstream os;
        harness::writeRunMetricsJson(
            harness::measureWithMetrics(*predictor, *buffer), os);
        json[s] = os.str();
    }
    return json;
}

void
checkPasses(const std::vector<PassJson> &passes,
            const PassJson &reference, Result &result)
{
    for (const PassJson &pass : passes) {
        for (std::size_t s = 0; s < kSchemes.size(); ++s) {
            result.check(!reference[s].empty() &&
                             pass[s] == reference[s],
                         "streamed metrics JSON of " + kSchemes[s] +
                             " differs from the whole-buffer JSON");
        }
    }
}

} // namespace

void
runTraceStream(const RunOptions &options, Result &result)
{
    Tracer off(false);
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double start = nowSeconds();
        const bool written = writeStreamFile(options, off);
        setup.push_back(nowSeconds() - start);
        result.check(written, "stream file write");
    }

    const double records =
        static_cast<double>(options.size.streamRecords * kSchemes.size());
    // Chunk latency percentiles per pass; the run reports their
    // median, so a burst of host noise moves one pass, not the run.
    std::vector<double> rates;
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> p99;
    std::size_t samples = 0;
    std::vector<PassJson> passes;
    const double deadline = nowSeconds() + options.seconds;
    do {
        PassJson json;
        std::vector<double> chunk_us;
        const double start = nowSeconds();
        const bool ok = streamPass(options, off, chunk_us, json);
        rates.push_back(records / (nowSeconds() - start));
        p50.push_back(quantile(chunk_us, 0.50));
        p90.push_back(quantile(chunk_us, 0.90));
        p99.push_back(quantile(chunk_us, 0.99));
        samples += chunk_us.size();
        result.check(ok, "stream pass");
        passes.push_back(std::move(json));
    } while (nowSeconds() < deadline);
    // Read before the whole-buffer reference below loads the file.
    const double peak = peakRssMib();

    checkPasses(passes, referenceJson(options), result);
    std::filesystem::remove(streamPath(options));

    result.metric("setup_s", median(setup), "s");
    result.metric("peak_rss_mib", peak, "MiB");
    result.metric("records_per_s", median(rates), "1/s");
    result.metric("p50_us", median(p50), "us");
    result.metric("p90_us", median(p90), "us");
    std::cout << "{\"detail\": {\"workload\": \"trace-stream\", "
                 "\"records_per_pass\": "
              << static_cast<std::uint64_t>(records)
              << ", \"passes\": " << passes.size()
              << ", \"chunk_records\": " << kChunkRecords
              << ", \"latency_samples\": " << samples
              << ", \"p99_us\": " << median(p99) << "}}\n";
}

void
ladderTraceStream(const RunOptions &options, Result &result,
                  Tracer &tracer)
{
    const int repeats = ladderRepeats(options);
    const double records = static_cast<double>(options.size.streamRecords);
    Tracer off(false);
    std::vector<double> chunk_us;
    std::vector<PassJson> passes;
    std::vector<double> untraced;
    alternate(
        repeats,
        [&] {
            PassJson json;
            const double start = nowSeconds();
            result.check(writeStreamFile(options, off) &&
                             streamPass(options, off, chunk_us, json),
                         "untraced stream ladder pass");
            untraced.push_back(nowSeconds() - start);
            passes.push_back(std::move(json));
        },
        [&] {
            PassJson json;
            {
                const Tracer::Scope root(tracer, "trace-stream");
                result.check(
                    writeStreamFile(options, tracer) &&
                        streamPass(options, tracer, chunk_us, json),
                    "traced stream ladder pass");
            }
            passes.push_back(std::move(json));
        });
    reportLadder(result, tracer, "trace-stream",
                 {"sim", "trace", "core", "harness"}, untraced);
    result.metric("trace.encode_ns_per_rec",
                  tracer.total("trace.encode") / (records * repeats) *
                      1e9,
                  "ns");
    result.metric("harness.json_emit_us",
                  median(tracer.durations("harness.json_emit")) * 1e6,
                  "us");

    // Decode alone: the consumer asks for every chunk and does nothing
    // with it, so it waits on the decode-ahead worker throughout.
    std::vector<double> decode;
    for (int i = 0; i < repeats; ++i) {
        const double start = nowSeconds();
        auto stream = trace::MmapChunkStream::open(streamPath(options),
                                                   kChunkRecords);
        std::uint64_t seen = 0;
        while (const trace::TraceChunk *chunk = stream->next())
            seen += chunk->records.size();
        stream.reset();
        decode.push_back((nowSeconds() - start) / records * 1e9);
        result.check(seen == options.size.streamRecords,
                     "decode-only stream record count");
    }
    result.metric("trace.mmap_decode_ns_per_rec", median(decode), "ns");

    checkPasses(passes, referenceJson(options), result);
    std::filesystem::remove(streamPath(options));

    // The metrics loop's own cost: measureWithMetrics against the
    // plain predict/update loop it wraps, same scheme, same traces.
    std::vector<trace::TraceBuffer> traces;
    double conditionals = 0.0;
    for (const std::string &name : workloads::workloadNames()) {
        traces.push_back(sim::collectTrace(
            workloads::makeWorkload(name)->buildTest(),
            options.size.sweepBudget));
        traces.back().predecoded();
        conditionals +=
            static_cast<double>(traces.back().conditionalCount());
    }
    std::vector<double> metrics;
    for (int i = 0; i < repeats; ++i) {
        double with_metrics = 0.0;
        double plain = 0.0;
        for (const trace::TraceBuffer &buffer : traces) {
            auto predictor = predictors::makePredictor(kSchemes[0]);
            predictor->reset();
            double start = nowSeconds();
            const AccuracyCounter reference =
                harness::measureReference(*predictor, buffer);
            plain += nowSeconds() - start;
            predictor->reset();
            start = nowSeconds();
            const harness::RunMetricsReport report =
                harness::measureWithMetrics(*predictor, buffer);
            with_metrics += nowSeconds() - start;
            result.check(report.accuracy.hits() == reference.hits(),
                         "metrics loop accuracy differs from the "
                         "reference loop");
        }
        metrics.push_back((with_metrics - plain) / conditionals * 1e9);
    }
    result.metric("harness.metrics_ns_per_branch", median(metrics),
                  "ns");
}

} // namespace perfbench
