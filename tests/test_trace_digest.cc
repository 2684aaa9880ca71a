/**
 * @file
 * Trace-byte pins: a digest of every record and of the instruction mix
 * that sim::collectTrace produces for each workload × data set, at two
 * conditional-branch budgets, plus one run stopped by the instruction
 * cap. test_golden_numbers pins accuracies at one budget only; this
 * pins the traces themselves, so an interpreter change that moves a
 * single record, class bit or mix count fails here, whatever a
 * predictor would make of it.
 *
 * If a change is *intentional* (a workload retune, an opcode's
 * semantics), the failure message prints the new table row; update it
 * and say so in EXPERIMENTS.md.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace tlat
{
namespace
{

/** FNV-1a over little-endian 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
traceDigest(const trace::TraceBuffer &buffer)
{
    Fnv fnv;
    fnv.add(buffer.size());
    for (const trace::BranchRecord &r : buffer.records()) {
        fnv.add(r.pc);
        fnv.add(r.target);
        fnv.add(static_cast<std::uint64_t>(r.cls) |
                std::uint64_t{r.taken} << 8 |
                std::uint64_t{r.isCall} << 16);
    }
    const trace::InstructionMix &mix = buffer.mix();
    fnv.add(mix.intAlu);
    fnv.add(mix.fpAlu);
    fnv.add(mix.memory);
    fnv.add(mix.controlFlow);
    fnv.add(mix.other);
    return fnv.value();
}

struct DigestRow
{
    const char *workload;
    const char *dataSet;
    std::uint64_t budget;
    std::uint64_t digest;
};

// Derived from sim::collectTrace(build(dataSet), budget) (exact).
constexpr DigestRow kDigests[] = {
    {"eqntott", "int_pri_3", 20000, 0x98ebcf9cd8f7cf59ULL},
    {"eqntott", "int_pri_3", 300000, 0xd02a24df6e0efe8dULL},
    {"espresso", "bca", 20000, 0x4303f4b6d6ca7be5ULL},
    {"espresso", "bca", 300000, 0xfe174d6a487b5a8eULL},
    {"espresso", "cps", 20000, 0xddceb48bc36815abULL},
    {"espresso", "cps", 300000, 0xdc63cc06910d9597ULL},
    {"gcc", "dbxout", 20000, 0xb1f3139ab9f8b3f9ULL},
    {"gcc", "dbxout", 300000, 0x286881d323b517acULL},
    {"gcc", "cexp", 20000, 0x3a597a312c1cc99aULL},
    {"gcc", "cexp", 300000, 0xe80ae9fe37731753ULL},
    {"li", "queens", 20000, 0x4ab4e926a7c3c8b7ULL},
    {"li", "queens", 300000, 0x8782b99597acea9dULL},
    {"li", "hanoi", 20000, 0xdc0b840f495555f1ULL},
    {"li", "hanoi", 300000, 0xa6700825cc905807ULL},
    {"doduc", "doducin", 20000, 0x8e96048728ab4b04ULL},
    {"doduc", "doducin", 300000, 0x80e18697138b84faULL},
    {"doduc", "tiny", 20000, 0x9a702f9927c8de86ULL},
    {"doduc", "tiny", 300000, 0x070041f36d29645bULL},
    {"fpppp", "natoms", 20000, 0xae7a284067eaedd3ULL},
    {"fpppp", "natoms", 300000, 0xaf0cae4367410702ULL},
    {"matrix300", "default", 20000, 0x1005ada18df19771ULL},
    {"matrix300", "default", 300000, 0x62f030fd5645fadfULL},
    {"spice2g6", "greycode", 20000, 0xb15e0500ed062130ULL},
    {"spice2g6", "greycode", 300000, 0x203ece63464ee417ULL},
    {"spice2g6", "short-greycode", 20000, 0xd9bfaff41c24ededULL},
    {"spice2g6", "short-greycode", 300000, 0x274a76fe935f7b84ULL},
    {"tomcatv", "default", 20000, 0x7c09d617b8894d7dULL},
    {"tomcatv", "default", 300000, 0xe67dc23e8852530fULL},
    {"kmp", "a4s4", 20000, 0x4d108b9a8465b439ULL},
    {"kmp", "a4s4", 300000, 0x7c4e53bc4e330734ULL},
    {"kmp", "a4s8", 20000, 0x3860158a13412aa2ULL},
    {"kmp", "a4s8", 300000, 0x15c8320fbc4560a7ULL},
    {"kmp", "a6s2", 20000, 0x1b317eeb16428fbfULL},
    {"kmp", "a6s2", 300000, 0xd4fbbc20c09055e0ULL},
    {"kmp", "fib8s4", 20000, 0x1d7576fe2bec6592ULL},
    {"kmp", "fib8s4", 300000, 0x1e5791c3c84c45a4ULL},
    {"alternating", "default", 20000, 0x865eb74ed5d86724ULL},
    {"alternating", "default", 300000, 0x24f459ff81e268b9ULL},
    {"datadep", "default", 20000, 0x6c4b1475f877faa9ULL},
    {"datadep", "default", 300000, 0x24ad74849a0e3513ULL},
    {"burst", "default", 20000, 0x7525c50560c03b94ULL},
    {"burst", "default", 300000, 0x8ef0e4deb94495c1ULL},
};

constexpr std::uint64_t kBudgets[] = {20000, 300000};

TEST(TraceDigest, EveryWorkloadDataSetAndBudgetIsPinned)
{
    std::size_t checked = 0;
    for (const std::string &name : workloads::allWorkloadNames()) {
        const auto workload = workloads::makeWorkload(name);
        for (const std::string &set : workload->dataSets()) {
            const isa::Program program = workload->build(set);
            for (const std::uint64_t budget : kBudgets) {
                const std::uint64_t digest =
                    traceDigest(sim::collectTrace(program, budget));
                const DigestRow *pin = nullptr;
                for (const DigestRow &row : kDigests) {
                    if (name == row.workload && set == row.dataSet &&
                        budget == row.budget)
                        pin = &row;
                }
                char line[160];
                std::snprintf(line, sizeof(line),
                              "{\"%s\", \"%s\", %llu, 0x%016llxULL},",
                              name.c_str(), set.c_str(),
                              static_cast<unsigned long long>(budget),
                              static_cast<unsigned long long>(digest));
                if (!pin) {
                    ADD_FAILURE() << "no pin; add: " << line;
                    continue;
                }
                EXPECT_EQ(digest, pin->digest) << "re-pin: " << line;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, std::size(kDigests));
}

TEST(TraceDigest, InstructionCapStopsMidWorkload)
{
    // 123457 instructions stops gcc part-way through a restart
    // iteration, with no relation to any block boundary.
    const isa::Program program =
        workloads::makeWorkload("gcc")->buildTest();
    const trace::TraceBuffer buffer =
        sim::collectTrace(program, 300000, 123457);
    EXPECT_EQ(buffer.mix().total(), 123457u);
    EXPECT_EQ(traceDigest(buffer), 0xc659e8de863106e8ULL)
        << std::hex << traceDigest(buffer);
}

} // namespace
} // namespace tlat
