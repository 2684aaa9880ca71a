/**
 * @file
 * Unit tests for the trace layer: buffers, binary/text serialization
 * round trips and trace statistics.
 */

#include <cstdint>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>

#include <gtest/gtest.h>

#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"

namespace tlat::trace
{
namespace
{

BranchRecord
record(std::uint64_t pc, std::uint64_t target, BranchClass cls,
       bool taken, bool is_call = false)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.cls = cls;
    r.taken = taken;
    r.isCall = is_call;
    return r;
}

TraceBuffer
sampleTrace()
{
    TraceBuffer buffer("sample");
    buffer.mix().intAlu = 10;
    buffer.mix().fpAlu = 5;
    buffer.mix().memory = 3;
    buffer.mix().controlFlow = 4;
    buffer.mix().other = 1;
    buffer.append(record(4, 16, BranchClass::Conditional, true));
    buffer.append(record(8, 16, BranchClass::Conditional, false));
    buffer.append(
        record(12, 40, BranchClass::ImmediateUnconditional, true));
    buffer.append(record(20, 4, BranchClass::Return, true));
    return buffer;
}

TEST(TraceBuffer, Basics)
{
    const TraceBuffer buffer = sampleTrace();
    EXPECT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer.conditionalCount(), 2u);
    EXPECT_EQ(buffer.name(), "sample");
    EXPECT_EQ(buffer[0].pc, 4u);
}

TEST(TraceBuffer, Clear)
{
    TraceBuffer buffer = sampleTrace();
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.mix().total(), 0u);
}

TEST(InstructionMix, Fractions)
{
    const TraceBuffer buffer = sampleTrace();
    EXPECT_EQ(buffer.mix().total(), 23u);
    EXPECT_NEAR(buffer.mix().branchFraction(), 4.0 / 23.0, 1e-12);
}

TEST(InstructionMix, Merge)
{
    InstructionMix a;
    a.intAlu = 1;
    InstructionMix b;
    b.intAlu = 2;
    b.fpAlu = 3;
    a.merge(b);
    EXPECT_EQ(a.intAlu, 3u);
    EXPECT_EQ(a.fpAlu, 3u);
}

TEST(TraceIo, BinaryRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const auto loaded = readBinary(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->records(), original.records());
    EXPECT_EQ(loaded->mix().total(), original.mix().total());
}

TEST(TraceIo, BinaryLoadReservesExactCapacity)
{
    // Bulk loads reserve both record vectors from the TLTR v2 header
    // count, so a multi-million-record load performs exactly one
    // allocation per lane instead of doubling-growth reallocations.
    // A non-power-of-two count makes growth observable: push_back
    // growth would land on a power-of-two capacity, not the count.
    TraceBuffer original("reserve");
    Rng rng(0xcafe);
    constexpr std::size_t kRecords = 1234;
    for (std::size_t i = 0; i < kRecords; ++i) {
        const bool conditional = rng.nextBool(0.75);
        original.append(record(
            4 * (i + 1), 16,
            conditional ? BranchClass::Conditional
                        : BranchClass::ImmediateUnconditional,
            rng.nextBool(0.5)));
    }

    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const auto loaded = readBinary(stream);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), kRecords);
    EXPECT_EQ(loaded->recordCapacity(), kRecords);
    EXPECT_EQ(loaded->conditionalCapacity(), kRecords);
    EXPECT_LE(loaded->conditionalCount(), kRecords);
}

TEST(TraceIo, TextRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeText(original, stream));
    const auto loaded = readText(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->records(), original.records());
    EXPECT_EQ(loaded->mix().intAlu, original.mix().intAlu);
}

TEST(TraceIo, BinaryRejectsGarbage)
{
    std::stringstream stream("not a trace at all");
    EXPECT_FALSE(readBinary(stream).has_value());
}

TEST(TraceIo, BinaryRejectsTruncation)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const std::string full = stream.str();
    for (std::size_t cut : {4ul, 12ul, full.size() - 3}) {
        std::stringstream truncated(full.substr(0, cut));
        EXPECT_FALSE(readBinary(truncated).has_value()) << cut;
    }
}

/** A stream buffer with no seek support, like a pipe. */
class UnseekableBuffer : public std::streambuf
{
  public:
    explicit UnseekableBuffer(std::string &bytes)
    {
        setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
    }
};

TEST(TraceIo, BinaryRejectsHugeRecordCountWithoutAllocating)
{
    // The u64 record count sits right before the records. A count of
    // 2^40 once went straight into reserve() and threw bad_alloc.
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    std::string bytes = stream.str();
    const std::size_t count_at =
        bytes.size() - original.size() * kTltrWireRecordSize -
        sizeof(std::uint64_t);
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));

    std::stringstream seekable(bytes);
    EXPECT_FALSE(readBinary(seekable).has_value());

    UnseekableBuffer pipe_buffer(bytes);
    std::istream pipe(&pipe_buffer);
    EXPECT_FALSE(readBinary(pipe).has_value());
}

TEST(TraceIo, BinaryLoadsFromUnseekableStream)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    std::string bytes = stream.str();
    UnseekableBuffer pipe_buffer(bytes);
    std::istream pipe(&pipe_buffer);
    const auto loaded = readBinary(pipe);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->records(), original.records());
}

TEST(TraceIo, TextRejectsBadRecords)
{
    std::stringstream bad_class("4 8 X T\n");
    EXPECT_FALSE(readText(bad_class).has_value());
    std::stringstream bad_taken("4 8 C Q\n");
    EXPECT_FALSE(readText(bad_taken).has_value());
    std::stringstream bad_fields("4\n");
    EXPECT_FALSE(readText(bad_fields).has_value());
}

TEST(TraceIo, TextRejectsTrailingJunk)
{
    // Only four fields are defined; a fifth token is junk, not
    // silently ignored.
    std::stringstream junk("4 8 C T extra\n");
    TextReadError error;
    EXPECT_FALSE(readText(junk, &error).has_value());
    EXPECT_EQ(error.line, 1u);
    EXPECT_NE(error.message.find("trailing junk"), std::string::npos);
    EXPECT_NE(error.message.find("extra"), std::string::npos);

    std::stringstream many("4 8 C T N G 12\n");
    EXPECT_FALSE(readText(many).has_value());
}

TEST(TraceIo, TextErrorsReportLineNumbers)
{
    std::stringstream bad_class("# name: x\n4 8 C T\n4 8 X T\n");
    TextReadError error;
    EXPECT_FALSE(readText(bad_class, &error).has_value());
    EXPECT_EQ(error.line, 3u);
    EXPECT_NE(error.message.find("class letter"), std::string::npos);

    std::stringstream short_line("4 8 C T\n\n4 8\n");
    error = {};
    EXPECT_FALSE(readText(short_line, &error).has_value());
    EXPECT_EQ(error.line, 3u);

    std::stringstream bad_outcome("4 8 C T\n4 8 C Q\n");
    error = {};
    EXPECT_FALSE(readText(bad_outcome, &error).has_value());
    EXPECT_EQ(error.line, 2u);
    EXPECT_NE(error.message.find("outcome"), std::string::npos);
}

TEST(TraceIo, TextEncodesClassAndCallBitIndependently)
{
    // Regression: writeText used to collapse any call record to 'J',
    // so a register-unconditional call read back as an
    // immediate-unconditional one.
    TraceBuffer buffer("calls");
    buffer.append(record(4, 96, BranchClass::RegisterUnconditional,
                         true, /*is_call=*/true));
    buffer.append(record(8, 96, BranchClass::ImmediateUnconditional,
                         true, /*is_call=*/true));
    std::stringstream text;
    ASSERT_TRUE(writeText(buffer, text));
    const auto loaded = readText(text);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->records(), buffer.records());
    EXPECT_EQ(loaded->records()[0].cls,
              BranchClass::RegisterUnconditional);
    EXPECT_TRUE(loaded->records()[0].isCall);
}

TEST(TraceIo, TextAcceptsLegacyCallLetter)
{
    // Old traces encoded immediate-unconditional calls as 'J'.
    std::stringstream text("10 40 J T\n");
    const auto loaded = readText(text);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->records()[0].cls,
              BranchClass::ImmediateUnconditional);
    EXPECT_TRUE(loaded->records()[0].isCall);
    EXPECT_TRUE(loaded->records()[0].taken);
}

TEST(TraceIo, RoundTripAllClassFlagCombinations)
{
    // binary -> text -> binary over the full class x taken x call
    // cross product: every combination must survive both formats.
    TraceBuffer buffer("combos");
    std::uint64_t pc = 4;
    for (unsigned cls = 0;
         cls < static_cast<unsigned>(BranchClass::NumClasses); ++cls) {
        for (const bool taken : {false, true}) {
            for (const bool is_call : {false, true}) {
                buffer.append(record(pc, pc + 64,
                                     static_cast<BranchClass>(cls),
                                     taken, is_call));
                pc += 4;
            }
        }
    }

    std::stringstream binary;
    ASSERT_TRUE(writeBinary(buffer, binary));
    const auto from_binary = readBinary(binary);
    ASSERT_TRUE(from_binary.has_value());
    EXPECT_EQ(from_binary->records(), buffer.records());

    std::stringstream text;
    ASSERT_TRUE(writeText(*from_binary, text));
    const auto from_text = readText(text);
    ASSERT_TRUE(from_text.has_value());
    EXPECT_EQ(from_text->records(), buffer.records());

    std::stringstream binary_again;
    ASSERT_TRUE(writeBinary(*from_text, binary_again));
    const auto full_circle = readBinary(binary_again);
    ASSERT_TRUE(full_circle.has_value());
    EXPECT_EQ(full_circle->records(), buffer.records());
}

TEST(TraceIo, TextSkipsBlanksAndComments)
{
    std::stringstream stream("# name: x\n\n# comment\n4 8 C T\n");
    const auto loaded = readText(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), "x");
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_TRUE(loaded->records()[0].taken);
}

TEST(TraceIo, RandomRoundTripProperty)
{
    Rng rng(0x77ace);
    TraceBuffer buffer("random");
    for (int i = 0; i < 5000; ++i) {
        buffer.append(record(
            rng.next() & ~3ull, rng.next() & ~3ull,
            static_cast<BranchClass>(rng.nextBelow(
                static_cast<std::uint64_t>(BranchClass::NumClasses))),
            rng.nextBool(), rng.nextBool()));
    }
    std::stringstream binary;
    ASSERT_TRUE(writeBinary(buffer, binary));
    const auto from_binary = readBinary(binary);
    ASSERT_TRUE(from_binary.has_value());
    EXPECT_EQ(from_binary->records(), buffer.records());

    std::stringstream text;
    ASSERT_TRUE(writeText(buffer, text));
    const auto from_text = readText(text);
    ASSERT_TRUE(from_text.has_value());
    EXPECT_EQ(from_text->records(), buffer.records());
}

TEST(TraceStats, ComputesClassCountsAndCensus)
{
    TraceBuffer buffer("stats");
    // Two static conditional branches (pc 4 twice, pc 8 once), one
    // return, one unconditional.
    buffer.append(record(4, 16, BranchClass::Conditional, true));
    buffer.append(record(4, 16, BranchClass::Conditional, false));
    buffer.append(record(8, 16, BranchClass::Conditional, true));
    buffer.append(record(20, 4, BranchClass::Return, true));
    buffer.append(
        record(24, 40, BranchClass::RegisterUnconditional, true));
    const TraceStats stats = computeStats(buffer);
    EXPECT_EQ(stats.dynamicBranches(), 5u);
    EXPECT_EQ(stats.dynamicConditionalBranches, 3u);
    EXPECT_EQ(stats.takenConditionalBranches, 2u);
    EXPECT_EQ(stats.staticConditionalBranches, 2u);
    EXPECT_EQ(stats.staticBranches, 4u);
    EXPECT_NEAR(stats.takenFraction(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(stats.classFraction(BranchClass::Conditional),
                3.0 / 5.0, 1e-12);
    EXPECT_NEAR(stats.classFraction(BranchClass::Return), 1.0 / 5.0,
                1e-12);
}

TEST(TraceStats, EmptyTrace)
{
    const TraceStats stats = computeStats(TraceBuffer{});
    EXPECT_EQ(stats.dynamicBranches(), 0u);
    EXPECT_EQ(stats.takenFraction(), 0.0);
    EXPECT_EQ(stats.classFraction(BranchClass::Conditional), 0.0);
}

TEST(BranchClassNames, AllNamed)
{
    EXPECT_STREQ(branchClassName(BranchClass::Conditional),
                 "conditional");
    EXPECT_STREQ(branchClassName(BranchClass::Return), "return");
    EXPECT_STREQ(
        branchClassName(BranchClass::ImmediateUnconditional),
        "immediate-unconditional");
    EXPECT_STREQ(branchClassName(BranchClass::RegisterUnconditional),
                 "register-unconditional");
}

} // namespace
} // namespace tlat::trace
