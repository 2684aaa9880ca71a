#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/json_writer.hh"
#include "util/random.hh"
#include "util/simd.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

Size
sizeNamed(const std::string &name)
{
    // full: the paper-sweep budget is `tlat compare`'s default; the
    // stream file is ~300 MB of TLTR, large enough that mmap decode
    // and the metrics loop dominate over open/close.
    if (name == "full")
        return {"full", 300000, 125000, 17000000};
    if (name == "tiny")
        return {"tiny", 20000, 10000, 270000};
    return {};
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::vector<std::string>
shuffled(std::vector<std::string> items, std::uint64_t seed)
{
    tlat::Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
    return items;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

double
quantile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(fraction * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
peakRssMib()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(Span{name, 0.0, 0.0, tracer_.current_});
    tracer_.current_ = index_;
    // Read the clock last so the bookkeeping above is not charged
    // to the span.
    tracer_.spans_.back().start = nowSeconds();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    const double end = nowSeconds();
    Span &span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.end = end;
    tracer_.current_ = span.parent;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            sum += span.end - span.start;
    }
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name)
            out.push_back(span.end - span.start);
    }
    return out;
}

std::map<std::string, double>
Tracer::layerSelfTimes(int root) const
{
    // Spans are recorded in start order and a child always follows
    // its parent, so one forward pass finds every descendant.
    std::vector<bool> inside(spans_.size(), false);
    std::vector<double> self(spans_.size(), 0.0);
    const auto r = static_cast<std::size_t>(root);
    inside[r] = true;
    self[r] = spans_[r].end - spans_[r].start;
    for (std::size_t i = r + 1; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        if (parent < 0 || !inside[static_cast<std::size_t>(parent)])
            continue;
        inside[i] = true;
        const double duration = spans_[i].end - spans_[i].start;
        self[i] += duration;
        self[static_cast<std::size_t>(parent)] -= duration;
    }
    std::map<std::string, double> layers;
    for (std::size_t i = r; i < spans_.size(); ++i) {
        if (!inside[i])
            continue;
        const std::string &name = spans_[i].name;
        const std::string layer =
            i == r ? "unattributed" : name.substr(0, name.find('.'));
        layers[layer] += self[i];
    }
    return layers;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        os << "{\"name\":\"" << tlat::JsonWriter::escape(span.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << span.start * 1e6
           << ",\"dur\":" << (span.end - span.start) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
           << "}}\n";
    }
    return static_cast<bool>(os);
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

namespace
{

/** Shortest round-trip rendering: every digit the value has. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    const auto res =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, res.ptr);
}

} // namespace

void
Result::print() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, entry] = metrics_[i];
        os << (i ? ", " : "") << "\"" << tlat::JsonWriter::escape(name)
           << "\": {\"value\": " << number(entry.first)
           << ", \"unit\": \"" << tlat::JsonWriter::escape(entry.second)
           << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

namespace
{

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

} // namespace

void
printFingerprint(const RunOptions &options)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool release = build_type == "Release";
    std::ostringstream os;
    os << "{\"fingerprint\": {\"cpu_model\": \""
       << tlat::JsonWriter::escape(cpuModel())
       << "\", \"nproc\": " << availableCpus() << ", \"simd_level\": \""
       << tlat::util::simd::levelName(tlat::util::simd::activeLevel())
       << "\", \"build_type\": \"" << tlat::JsonWriter::escape(build_type)
       << "\", \"release\": " << (release ? "true" : "false")
       << ", \"compiler\": \"" << tlat::JsonWriter::escape(__VERSION__)
       << "\", \"size\": \"" << options.size.name
       << "\", \"workload\": \"" << options.workload
       << "\", \"seed\": " << options.seed << "}}";
    std::cout << os.str() << std::endl;
    if (!release) {
        std::cerr << "perfbench: WARNING: build type '" << build_type
                  << "' is not Release; figures are not comparable "
                     "with Release records\n";
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace perfbench
