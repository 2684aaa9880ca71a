#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace tlat::sim
{

namespace
{

double
asDouble(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::uint64_t
asBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * Ftoi: truncation toward zero. A NaN or a value outside int64's range
 * (undefined behaviour as a C++ cast) gives INT64_MIN, the value x86's
 * cvttsd2si returns for them.
 */
std::uint64_t
truncToInt(double value)
{
    constexpr double kLimit = 0x1p63;
    if (!(value >= -kLimit && value < kLimit))
        return std::uint64_t{1} << 63;
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
}

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(isa::Opcode::NumOpcodes);

} // namespace

Simulator::Simulator(const isa::Program &program)
    : program_(program),
      memory_(program.dataWords ? program.dataWords : 1)
{
    memory_.initialize(program.initialData);
}

template <typename Sink>
SimResult
Simulator::runWith(Sink &&sink, const SimOptions &options)
{
    tlat_assert(!ran_, "Simulator::run() called twice");
    ran_ = true;
    tlat_assert(!program_.code.empty(), "empty program");

    using isa::Opcode;
    using trace::BranchClass;

    // The machine state lives in locals for the loop: nothing the loop
    // stores through (data memory, the sink) can alias them, so the
    // compiler need not reload them after every store. regs_ gets the
    // final registers back for reg().
    std::uint64_t regs[isa::kNumRegisters] = {};
    std::uint64_t pc = program_.entry;
    const isa::Instruction *const code = program_.code.data();
    const std::uint64_t code_size = program_.code.size();

    SimResult result;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t conditional = 0;
    bool stop = false;

    // Executed instructions per opcode, folded into the mix on exit.
    std::uint64_t executed[kNumOpcodes] = {};

    while (!stop) {
        if (instructions >= options.maxInstructions) {
            result.stopReason = StopReason::InstructionCap;
            break;
        }
        if (pc >= code_size) {
            tlat_fatal("pc ", pc, " ran off the end of program '",
                       program_.name, "' (", code_size,
                       " instructions)");
        }

        const isa::Instruction in = code[pc];
        ++instructions;

        const std::uint64_t a = regs[in.rs1];
        const std::uint64_t b = regs[in.rs2];
        const auto sa = static_cast<std::int64_t>(a);
        const auto sb = static_cast<std::int64_t>(b);
        const std::int64_t imm = in.imm;
        // r0 is a scratch slot: an instruction may write it, and it is
        // re-zeroed below before the next instruction reads it.
        std::uint64_t &rd = regs[in.rd];
        std::uint64_t next_pc = pc + 1;

        // Reports a branch to the sink and moves next_pc to its
        // target when taken; sets `stop` on sink request.
        const auto report = [&](BranchClass cls,
                                std::uint64_t target_pc, bool taken,
                                bool is_call = false) {
            ++branches;
            if (cls == BranchClass::Conditional)
                ++conditional;
            if (taken)
                next_pc = target_pc;
            trace::BranchRecord record;
            record.pc = pc * isa::kInstructionBytes;
            record.target = target_pc * isa::kInstructionBytes;
            record.cls = cls;
            record.taken = taken;
            record.isCall = is_call;
            if (!sink(record)) {
                result.stopReason = StopReason::SinkRequest;
                stop = true;
            }
        };

        const auto condBranch = [&](bool taken) {
            report(BranchClass::Conditional, pc + imm, taken);
        };

        switch (in.opcode) {
          case Opcode::Add: rd = a + b; break;
          case Opcode::Sub: rd = a - b; break;
          case Opcode::Mul: rd = a * b; break;
          // Division is total, never trapped, so workload bugs surface
          // as wrong data rather than simulator crashes. By zero: div
          // gives 0 and rem the dividend. By -1: the two's-complement
          // negation and 0, so INT64_MIN / -1 wraps to INT64_MIN.
          case Opcode::Div:
            rd = sb == 0    ? 0
                 : sb == -1 ? 0 - a
                            : static_cast<std::uint64_t>(sa / sb);
            break;
          case Opcode::Rem:
            rd = sb == 0    ? a
                 : sb == -1 ? 0
                            : static_cast<std::uint64_t>(sa % sb);
            break;
          case Opcode::And: rd = a & b; break;
          case Opcode::Or: rd = a | b; break;
          case Opcode::Xor: rd = a ^ b; break;
          case Opcode::Sll: rd = a << (b & 63); break;
          case Opcode::Srl: rd = a >> (b & 63); break;
          case Opcode::Sra:
            rd = static_cast<std::uint64_t>(sa >> (b & 63));
            break;
          case Opcode::Slt: rd = sa < sb ? 1 : 0; break;
          case Opcode::Sltu: rd = a < b ? 1 : 0; break;

          case Opcode::Addi: rd = a + imm; break;
          case Opcode::Andi: rd = a & (imm & 0xffff); break;
          case Opcode::Ori: rd = a | (imm & 0xffff); break;
          case Opcode::Xori: rd = a ^ (imm & 0xffff); break;
          case Opcode::Slli: rd = a << (imm & 63); break;
          case Opcode::Srli: rd = a >> (imm & 63); break;
          case Opcode::Srai:
            rd = static_cast<std::uint64_t>(sa >> (imm & 63));
            break;
          case Opcode::Slti: rd = sa < imm ? 1 : 0; break;
          case Opcode::Li: rd = static_cast<std::uint64_t>(imm); break;

          case Opcode::Fadd: rd = asBits(asDouble(a) + asDouble(b)); break;
          case Opcode::Fsub: rd = asBits(asDouble(a) - asDouble(b)); break;
          case Opcode::Fmul: rd = asBits(asDouble(a) * asDouble(b)); break;
          case Opcode::Fdiv: rd = asBits(asDouble(a) / asDouble(b)); break;
          case Opcode::Fneg: rd = asBits(-asDouble(a)); break;
          case Opcode::Fabs: rd = asBits(std::fabs(asDouble(a))); break;
          case Opcode::Fsqrt: rd = asBits(std::sqrt(asDouble(a))); break;
          case Opcode::Fcvt: rd = asBits(static_cast<double>(sa)); break;
          case Opcode::Ftoi: rd = truncToInt(asDouble(a)); break;
          case Opcode::Flt: rd = asDouble(a) < asDouble(b) ? 1 : 0; break;
          case Opcode::Fle: rd = asDouble(a) <= asDouble(b) ? 1 : 0; break;
          case Opcode::Feq: rd = asDouble(a) == asDouble(b) ? 1 : 0; break;

          case Opcode::Ld: rd = memory_.load(a + imm); break;
          case Opcode::St: memory_.store(a + imm, b); break;

          case Opcode::Beq: condBranch(a == b); break;
          case Opcode::Bne: condBranch(a != b); break;
          case Opcode::Blt: condBranch(sa < sb); break;
          case Opcode::Bge: condBranch(sa >= sb); break;
          case Opcode::Bltu: condBranch(a < b); break;
          case Opcode::Bgeu: condBranch(a >= b); break;

          case Opcode::Jmp:
            report(BranchClass::ImmediateUnconditional, pc + imm, true);
            break;
          case Opcode::Call:
            regs[isa::kLinkReg] = (pc + 1) * isa::kInstructionBytes;
            report(BranchClass::ImmediateUnconditional, pc + imm, true,
                   /*is_call=*/true);
            break;
          case Opcode::Jr:
            report(BranchClass::RegisterUnconditional,
                   a / isa::kInstructionBytes, true);
            break;
          case Opcode::Ret:
            report(BranchClass::Return,
                   regs[isa::kLinkReg] / isa::kInstructionBytes, true);
            break;

          case Opcode::Nop:
            break;
          case Opcode::Halt:
            if (options.restartOnHalt) {
                std::memset(regs, 0, sizeof(regs));
                next_pc = program_.entry;
            } else {
                result.stopReason = StopReason::Halted;
                stop = true;
            }
            break;

          default:
            tlat_panic("unhandled opcode in simulator");
        }

        ++executed[static_cast<std::size_t>(in.opcode)];
        regs[isa::kZeroReg] = 0;
        pc = next_pc;
    }

    result.instructions = instructions;
    result.branches = branches;
    result.conditionalBranches = conditional;
    for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        trace::InstructionMix &mix = result.mix;
        switch (isa::opcodeGroup(static_cast<Opcode>(op))) {
          case isa::InstrGroup::IntAlu: mix.intAlu += executed[op]; break;
          case isa::InstrGroup::FpAlu: mix.fpAlu += executed[op]; break;
          case isa::InstrGroup::Memory: mix.memory += executed[op]; break;
          case isa::InstrGroup::ControlFlow:
            mix.controlFlow += executed[op];
            break;
          case isa::InstrGroup::Other: mix.other += executed[op]; break;
        }
    }

    std::memcpy(regs_, regs, sizeof(regs));
    return result;
}

SimResult
Simulator::run(const BranchSink &sink, const SimOptions &options)
{
    return runWith(
        [&sink](const trace::BranchRecord &record) {
            return !sink || sink(record);
        },
        options);
}

trace::TraceBuffer
collectTrace(const isa::Program &program,
             std::uint64_t conditionalBudget,
             std::uint64_t maxInstructions)
{
    Simulator simulator(program);
    trace::TraceBuffer buffer(program.name);
    // One allocation per vector, not log2(budget): the budget is exact
    // for the conditional mirror and a lower bound for the records.
    // Under a tighter instruction cap, the cap bounds both.
    if (conditionalBudget != 0)
        buffer.reserve(std::min(conditionalBudget, maxInstructions));

    SimOptions options;
    options.maxInstructions = maxInstructions;
    options.restartOnHalt = conditionalBudget != 0;

    // A budget of 0 never matches a count, so such a run stops only
    // at Halt or the instruction cap.
    std::uint64_t conditional_seen = 0;
    const SimResult result = simulator.runWith(
        [&](const trace::BranchRecord &record) {
            buffer.append(record);
            return record.cls != trace::BranchClass::Conditional ||
                   ++conditional_seen != conditionalBudget;
        },
        options);
    buffer.mix() = result.mix;
    return buffer;
}

} // namespace tlat::sim
