/**
 * @file
 * Unit tests for the micro88 instruction-level simulator: opcode
 * semantics, control flow, branch records, stop conditions and the
 * dynamic instruction mix.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace tlat::sim
{
namespace
{

using isa::Program;
using isa::ProgramBuilder;
using trace::BranchClass;
using trace::BranchRecord;

double
undbl(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Runs a builder-program to completion; returns the simulator. */
std::unique_ptr<Simulator>
run(ProgramBuilder &b)
{
    static std::vector<std::unique_ptr<Program>> programs;
    programs.push_back(std::make_unique<Program>(b.build()));
    auto simulator = std::make_unique<Simulator>(*programs.back());
    simulator->run(nullptr, {});
    return simulator;
}

TEST(Simulator, IntegerArithmetic)
{
    ProgramBuilder b("alu");
    b.li(1, 7);
    b.li(2, 3);
    b.add(3, 1, 2);
    b.sub(4, 1, 2);
    b.mul(5, 1, 2);
    b.div(6, 1, 2);
    b.rem(7, 1, 2);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(3), 10u);
    EXPECT_EQ(s->reg(4), 4u);
    EXPECT_EQ(s->reg(5), 21u);
    EXPECT_EQ(s->reg(6), 2u);
    EXPECT_EQ(s->reg(7), 1u);
}

TEST(Simulator, SignedDivision)
{
    ProgramBuilder b("sdiv");
    b.li(1, -7);
    b.li(2, 2);
    b.div(3, 1, 2);
    b.rem(4, 1, 2);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(static_cast<std::int64_t>(s->reg(3)), -3);
    EXPECT_EQ(static_cast<std::int64_t>(s->reg(4)), -1);
}

TEST(Simulator, DivisionByZeroIsDefined)
{
    ProgramBuilder b("div0");
    b.li(1, 42);
    b.li(2, 0);
    b.div(3, 1, 2);
    b.rem(4, 1, 2);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(3), 0u);   // div by zero -> 0
    EXPECT_EQ(s->reg(4), 42u);  // rem by zero -> dividend
}

TEST(Simulator, DivisionOverflowIsDefined)
{
    // INT64_MIN / -1 overflows; on x86 the hardware divide traps.
    ProgramBuilder b("divovf");
    b.li(1, 1);
    b.slli(1, 1, 63); // INT64_MIN
    b.li(2, -1);
    b.div(3, 1, 2);
    b.rem(4, 1, 2);
    b.li(5, 7);
    b.div(6, 5, 2);
    b.rem(7, 5, 2);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(3), std::uint64_t{1} << 63); // wraps to INT64_MIN
    EXPECT_EQ(s->reg(4), 0u);
    EXPECT_EQ(static_cast<std::int64_t>(s->reg(6)), -7);
    EXPECT_EQ(s->reg(7), 0u);
}

TEST(Simulator, FtoiOfNanOrOutOfRangeIsInt64Min)
{
    ProgramBuilder b("ftoi");
    b.li(1, 0);
    b.fcvt(2, 1);
    b.fdiv(3, 2, 2);    // NaN
    b.ftoi(4, 3);
    b.li(5, 1);
    b.slli(5, 5, 62);
    b.fcvt(6, 5);       // 2^62
    b.fmul(7, 6, 6);    // 2^124
    b.ftoi(8, 7);
    b.fneg(9, 7);       // -2^124
    b.ftoi(10, 9);
    b.slli(11, 5, 1);   // INT64_MIN
    b.fcvt(12, 11);     // -2^63, the one in-range edge
    b.ftoi(13, 12);
    b.fneg(14, 12);     // 2^63, just out of range
    b.ftoi(15, 14);
    b.loadDouble(16, -2.75);
    b.ftoi(17, 16);     // truncates toward zero
    b.halt();
    auto s = run(b);
    constexpr std::uint64_t kInt64Min = std::uint64_t{1} << 63;
    EXPECT_EQ(s->reg(4), kInt64Min);
    EXPECT_EQ(s->reg(8), kInt64Min);
    EXPECT_EQ(s->reg(10), kInt64Min);
    EXPECT_EQ(s->reg(13), kInt64Min);
    EXPECT_EQ(s->reg(15), kInt64Min);
    EXPECT_EQ(static_cast<std::int64_t>(s->reg(17)), -2);
}

TEST(Simulator, LogicAndShifts)
{
    ProgramBuilder b("logic");
    b.li(1, 0b1100);
    b.li(2, 0b1010);
    b.and_(3, 1, 2);
    b.or_(4, 1, 2);
    b.xor_(5, 1, 2);
    b.li(6, 2);
    b.sll(7, 1, 6);
    b.srl(8, 1, 6);
    b.li(9, -16);
    b.sra(10, 9, 6);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(3), 0b1000u);
    EXPECT_EQ(s->reg(4), 0b1110u);
    EXPECT_EQ(s->reg(5), 0b0110u);
    EXPECT_EQ(s->reg(7), 0b110000u);
    EXPECT_EQ(s->reg(8), 0b11u);
    EXPECT_EQ(static_cast<std::int64_t>(s->reg(10)), -4);
}

TEST(Simulator, Comparisons)
{
    ProgramBuilder b("cmp");
    b.li(1, -1);
    b.li(2, 1);
    b.slt(3, 1, 2);   // signed: -1 < 1
    b.sltu(4, 1, 2);  // unsigned: huge > 1
    b.slti(5, 1, 0);  // -1 < 0
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(3), 1u);
    EXPECT_EQ(s->reg(4), 0u);
    EXPECT_EQ(s->reg(5), 1u);
}

TEST(Simulator, LogicalImmediatesZeroExtend)
{
    // andi/ori/xori zero-extend their 16-bit immediate (MIPS-style).
    ProgramBuilder b("immz");
    b.li(1, -1);
    b.andi(2, 1, -1); // 0xffff zero-extended
    b.li(3, 0);
    b.ori(4, 3, -1);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(2), 0xffffu);
    EXPECT_EQ(s->reg(4), 0xffffu);
}

TEST(Simulator, ZeroRegisterIsHardwired)
{
    ProgramBuilder b("zero");
    b.li(0, 99);
    b.addi(0, 0, 5);
    b.add(1, 0, 0);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(0), 0u);
    EXPECT_EQ(s->reg(1), 0u);
}

TEST(Simulator, FloatingPoint)
{
    ProgramBuilder b("fp");
    b.loadDouble(1, 2.0);
    b.loadDouble(2, 0.5);
    b.fadd(3, 1, 2);
    b.fsub(4, 1, 2);
    b.fmul(5, 1, 2);
    b.fdiv(6, 1, 2);
    b.fneg(7, 1);
    b.loadDouble(8, -3.5);
    b.fabs_(9, 8);
    b.loadDouble(10, 9.0);
    b.fsqrt(11, 10);
    b.li(12, 5);
    b.fcvt(13, 12);
    b.ftoi(14, 1);
    b.flt(15, 2, 1);
    b.fle(16, 1, 1);
    b.feq(17, 1, 2);
    b.halt();
    auto s = run(b);
    EXPECT_DOUBLE_EQ(undbl(s->reg(3)), 2.5);
    EXPECT_DOUBLE_EQ(undbl(s->reg(4)), 1.5);
    EXPECT_DOUBLE_EQ(undbl(s->reg(5)), 1.0);
    EXPECT_DOUBLE_EQ(undbl(s->reg(6)), 4.0);
    EXPECT_DOUBLE_EQ(undbl(s->reg(7)), -2.0);
    EXPECT_DOUBLE_EQ(undbl(s->reg(9)), 3.5);
    EXPECT_DOUBLE_EQ(undbl(s->reg(11)), 3.0);
    EXPECT_DOUBLE_EQ(undbl(s->reg(13)), 5.0);
    EXPECT_EQ(s->reg(14), 2u);
    EXPECT_EQ(s->reg(15), 1u);
    EXPECT_EQ(s->reg(16), 1u);
    EXPECT_EQ(s->reg(17), 0u);
}

TEST(Simulator, MemoryLoadStore)
{
    ProgramBuilder b("mem");
    const auto addr = b.data({11, 22});
    b.loadImm(1, static_cast<std::int64_t>(addr));
    b.ld(2, 1, 0);
    b.ld(3, 1, 8);
    b.add(4, 2, 3);
    b.st(1, 4, 8);
    b.ld(5, 1, 8);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(2), 11u);
    EXPECT_EQ(s->reg(3), 22u);
    EXPECT_EQ(s->reg(5), 33u);
    EXPECT_EQ(s->memory().load(addr + 8), 33u);
}

TEST(Simulator, ConditionalBranchSemantics)
{
    // Each branch kind: set r1 if the branch was (incorrectly) not
    // taken; the final register must stay zero.
    ProgramBuilder b("br");
    auto l1 = b.newLabel();
    auto l2 = b.newLabel();
    auto l3 = b.newLabel();
    b.li(2, -5);
    b.li(3, 5);
    b.beq(2, 2, l1);
    b.li(1, 1);
    b.bind(l1);
    b.blt(2, 3, l2);  // signed -5 < 5
    b.li(1, 2);
    b.bind(l2);
    b.bltu(3, 2, l3); // unsigned 5 < huge
    b.li(1, 3);
    b.bind(l3);
    b.halt();
    auto s = run(b);
    EXPECT_EQ(s->reg(1), 0u);
}

TEST(Simulator, BranchRecordsCarryPcTargetClassOutcome)
{
    ProgramBuilder b("records");
    auto skip = b.newLabel();
    b.li(1, 1);              // pc 0
    b.beq(1, 0, skip);       // pc 1: not taken
    b.bne(1, 0, skip);       // pc 2: taken -> pc 4
    b.nop();                 // pc 3 (skipped)
    b.bind(skip);
    b.halt();                // pc 4
    std::vector<BranchRecord> records;
    Program p = b.build();
    Simulator s(p);
    s.run([&](const BranchRecord &r) {
        records.push_back(r);
        return true;
    }, {});
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].pc, 1u * 4);
    EXPECT_EQ(records[0].target, 4u * 4);
    EXPECT_EQ(records[0].cls, BranchClass::Conditional);
    EXPECT_FALSE(records[0].taken);
    EXPECT_EQ(records[1].pc, 2u * 4);
    EXPECT_EQ(records[1].target, 4u * 4);
    EXPECT_TRUE(records[1].taken);
}

TEST(Simulator, CallRetAndClasses)
{
    ProgramBuilder b("calls");
    auto sub = b.newLabel();
    auto end = b.newLabel();
    b.call(sub);       // pc 0
    b.jmp(end);        // pc 1
    b.bind(sub);
    b.li(1, 77);       // pc 2
    b.ret();           // pc 3
    b.bind(end);
    b.halt();          // pc 4
    std::vector<BranchRecord> records;
    Program p = b.build();
    Simulator s(p);
    s.run([&](const BranchRecord &r) {
        records.push_back(r);
        return true;
    }, {});
    EXPECT_EQ(s.reg(1), 77u);
    EXPECT_EQ(s.reg(31), 1u * 4); // link register: return address
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].cls, BranchClass::ImmediateUnconditional);
    EXPECT_EQ(records[0].pc, 0u);
    EXPECT_EQ(records[0].target, 2u * 4);
    EXPECT_EQ(records[1].cls, BranchClass::Return);
    EXPECT_EQ(records[1].target, 1u * 4);
    EXPECT_EQ(records[2].cls, BranchClass::ImmediateUnconditional);
    EXPECT_TRUE(records[2].taken);
}

TEST(Simulator, JumpRegisterClass)
{
    ProgramBuilder b("jr");
    auto target = b.newLabel();
    b.la(1, target);
    b.jr(1);
    b.nop();
    b.bind(target);
    b.li(2, 5);
    b.halt();
    std::vector<BranchRecord> records;
    Program p = b.build();
    Simulator s(p);
    s.run([&](const BranchRecord &r) {
        records.push_back(r);
        return true;
    }, {});
    EXPECT_EQ(s.reg(2), 5u);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].cls, BranchClass::RegisterUnconditional);
}

TEST(Simulator, InstructionCapStops)
{
    ProgramBuilder b("cap");
    auto loop = b.newLabel();
    b.bind(loop);
    b.jmp(loop);
    Program p = b.build();
    Simulator s(p);
    SimOptions options;
    options.maxInstructions = 1000;
    const SimResult result = s.run(nullptr, options);
    EXPECT_EQ(result.stopReason, StopReason::InstructionCap);
    EXPECT_EQ(result.instructions, 1000u);
}

TEST(Simulator, SinkCanStopRun)
{
    ProgramBuilder b("stop");
    auto loop = b.newLabel();
    b.bind(loop);
    b.jmp(loop);
    Program p = b.build();
    Simulator s(p);
    int seen = 0;
    const SimResult result = s.run([&](const BranchRecord &) {
        return ++seen < 5;
    }, {});
    EXPECT_EQ(result.stopReason, StopReason::SinkRequest);
    EXPECT_EQ(seen, 5);
}

TEST(Simulator, RestartOnHaltPreservesMemory)
{
    // The program increments a memory counter and halts; with
    // restartOnHalt the counter keeps rising across restarts while
    // registers reset.
    ProgramBuilder b("restart");
    const auto addr = b.data({0});
    auto loop = b.newLabel();
    b.loadImm(1, static_cast<std::int64_t>(addr));
    b.ld(2, 1, 0);
    b.addi(2, 2, 1);
    b.st(1, 2, 0);
    b.beq(0, 0, loop); // always taken, gives the sink a branch
    b.bind(loop);
    b.halt();
    Program p = b.build();
    Simulator s(p);
    int branches = 0;
    SimOptions options;
    options.restartOnHalt = true;
    s.run([&](const BranchRecord &) { return ++branches < 5; },
          options);
    EXPECT_EQ(branches, 5);
    EXPECT_EQ(s.memory().load(addr), 5u);
}

TEST(Simulator, MixCounting)
{
    ProgramBuilder b("mix2");
    auto end = b.newLabel();
    const auto addr = b.bss(1);
    b.li(1, 1);                                    // int
    b.loadImm(3, static_cast<std::int64_t>(addr)); // int (1 instr)
    b.fadd(2, 0, 0);                               // fp
    b.st(3, 1, 0);                                 // mem
    b.ld(4, 3, 0);                                 // mem
    b.nop();                                       // other
    b.beq(0, 0, end);                              // control
    b.bind(end);
    b.halt();                                      // other
    Program p = b.build();
    Simulator s(p);
    const SimResult result = s.run(nullptr, {});
    EXPECT_EQ(result.mix.intAlu, 2u);
    EXPECT_EQ(result.mix.fpAlu, 1u);
    EXPECT_EQ(result.mix.memory, 2u);
    EXPECT_EQ(result.mix.controlFlow, 1u);
    EXPECT_EQ(result.mix.other, 2u);
    EXPECT_EQ(result.instructions, 8u);
    EXPECT_EQ(result.branches, 1u);
    EXPECT_EQ(result.conditionalBranches, 1u);
}

TEST(Simulator, CollectTraceHonorsBudget)
{
    ProgramBuilder b("budget");
    auto loop = b.newLabel();
    b.li(1, 0);
    b.bind(loop);
    b.addi(1, 1, 1);
    b.blt(1, 1, loop); // never taken; still a conditional record
    b.li(2, 100);
    b.blt(1, 2, loop); // taken until r1 == 100
    b.halt();
    Program p = b.build();
    const trace::TraceBuffer buffer = collectTrace(p, 50);
    EXPECT_EQ(buffer.conditionalCount(), 50u);
}

TEST(Simulator, CollectTraceZeroBudgetRunsToHalt)
{
    ProgramBuilder b("once");
    auto skip = b.newLabel();
    b.beq(0, 0, skip);
    b.bind(skip);
    b.halt();
    Program p = b.build();
    const trace::TraceBuffer buffer = collectTrace(p, 0);
    EXPECT_EQ(buffer.size(), 1u);
}

TEST(Simulator, CollectTraceReservesTheBudget)
{
    // The budget is exact for the conditional mirror and a lower
    // bound for all records, which also hold calls and returns.
    const Program p = workloads::makeWorkload("gcc")->buildTest();
    constexpr std::uint64_t kBudget = 5000;
    const trace::TraceBuffer buffer = collectTrace(p, kBudget);
    EXPECT_EQ(buffer.conditionalCount(), kBudget);
    EXPECT_GT(buffer.size(), kBudget);
    EXPECT_EQ(buffer.conditionalCapacity(), kBudget);
    EXPECT_GE(buffer.recordCapacity(), buffer.size());
}

TEST(Simulator, RunWrapperMatchesCollectTrace)
{
    // collectTrace drives the loop with an inlined append; run() goes
    // through a BranchSink. Under the same cap both must see the same
    // instructions, branches and mix, and a null sink the same counts.
    const Program p = workloads::makeWorkload("gcc")->buildTest();
    constexpr std::uint64_t kCap = 250001;
    const trace::TraceBuffer collected =
        collectTrace(p, std::uint64_t{1} << 40, kCap);

    SimOptions options;
    options.maxInstructions = kCap;
    options.restartOnHalt = true;
    trace::TraceBuffer sunk;
    Simulator with_sink(p);
    const SimResult a = with_sink.run(
        [&](const BranchRecord &record) {
            sunk.append(record);
            return true;
        },
        options);
    Simulator without_sink(p);
    const SimResult b = without_sink.run(nullptr, options);

    EXPECT_EQ(sunk.records(), collected.records());
    for (const SimResult &result : {a, b}) {
        EXPECT_EQ(result.stopReason, StopReason::InstructionCap);
        EXPECT_EQ(result.instructions, kCap);
        EXPECT_EQ(result.branches, collected.size());
        EXPECT_EQ(result.conditionalBranches,
                  collected.conditionalCount());
        EXPECT_EQ(result.mix.intAlu, collected.mix().intAlu);
        EXPECT_EQ(result.mix.fpAlu, collected.mix().fpAlu);
        EXPECT_EQ(result.mix.memory, collected.mix().memory);
        EXPECT_EQ(result.mix.controlFlow, collected.mix().controlFlow);
        EXPECT_EQ(result.mix.other, collected.mix().other);
    }
    for (unsigned r = 0; r < isa::kNumRegisters; ++r)
        EXPECT_EQ(with_sink.reg(r), without_sink.reg(r)) << "r" << r;
}

TEST(SimulatorDeath, PcOffEndIsFatal)
{
    ProgramBuilder b("off");
    b.nop(); // falls off the end, no halt
    Program p = b.build();
    Simulator s(p);
    EXPECT_EXIT(s.run(nullptr, {}), ::testing::ExitedWithCode(1),
                "ran off the end");
}

} // namespace
} // namespace tlat::sim
