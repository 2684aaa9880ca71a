#include "lee_smith_btb.hh"

#include <utility>

#include "core/checkpoint.hh"
#include "core/contracts.hh"
#include "core/lane_prober.hh"
#include "util/string_utils.hh"

namespace tlat::predictors
{

using core::Automaton;
using core::TableKind;

LeeSmithPredictor::LeeSmithPredictor(const LeeSmithConfig &config)
    : config_(config)
{
    table_ = makeTable();
}

std::unique_ptr<core::HistoryTable<Automaton>>
LeeSmithPredictor::makeTable() const
{
    return core::makeHistoryTable(
        config_.tableKind, config_.entries, config_.associativity,
        Automaton(config_.automaton), config_.addrShift);
}

std::string
LeeSmithPredictor::name() const
{
    const std::string hrt_part =
        config_.tableKind == TableKind::Ideal
            ? format("IHRT(,%s)", core::automatonName(config_.automaton))
            : format("%s(%zu,%s)", core::tableKindName(config_.tableKind),
                     config_.entries,
                     core::automatonName(config_.automaton));
    return format("LS(%s,,)", hrt_part.c_str());
}

Automaton &
LeeSmithPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &table_->lookup(pc);
    return *last_entry_;
}

bool
LeeSmithPredictor::predict(const trace::BranchRecord &record)
{
    return lookup(record.pc).predict();
}

void
LeeSmithPredictor::update(const trace::BranchRecord &record)
{
    lookup(record.pc).update(record.taken);
    // One predict/update pair is one logical table access.
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

template <typename Walk>
bool
LeeSmithPredictor::fusedLoop(Walk &&walk, AccuracyCounter &accuracy)
{
    return core::visitAutomaton(
        config_.automaton, 0, [&](const auto &ops) {
            walk([&](Automaton &automaton, bool taken) {
                const bool predicted = ops.predict(automaton.state());
                accuracy.record(predicted == taken);
                automaton.setState(ops.next(automaton.state(), taken));
            });
        });
}

void
LeeSmithPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    const trace::PredecodedTrace &soa = view.soa();
    // The ideal and hashed tables walk the ids through a lane prober,
    // with outcomes from the packed bitvector.
    const auto probeEach = [&](auto &&prober) {
        return fusedLoop(
            [&](auto &&step) {
                const std::span<const trace::BranchId> ids =
                    soa.branchIds();
                for (std::size_t i = 0; i < ids.size(); ++i)
                    step(prober.probe(ids[i]), soa.taken(i));
            },
            accuracy);
    };
    // Mid predict/update pair, the AoS twin owns the fallback to the
    // reference loop, which honours the memo.
    bool fused = false;
    if (last_entry_ == nullptr) {
        switch (config_.tableKind) {
          case TableKind::Ideal:
            fused = probeEach(core::IdealLaneProber<Automaton>(
                static_cast<core::IdealTable<Automaton> &>(*table_),
                soa.uniquePcs()));
            break;
          case TableKind::Associative: {
            // A cold AHRT is one fused pass over a dense copy of the
            // automaton states, indexed by the slot each record is
            // served from: the slot plays the pattern table's part.
            // A warm one takes the AoS loop, which derives set and
            // tag from the pc as cheaply as a lane would.
            const auto luts = core::fusedLutsFor(config_.automaton);
            fused =
                luts &&
                core::coldAhrtPass<std::uint8_t>(
                    static_cast<core::AssociativeTable<Automaton> &>(
                        *table_),
                    soa,
                    [](const Automaton &automaton) {
                        return automaton.state();
                    },
                    [&](std::uint8_t *states, const auto &slot_of) {
                        core::fusedLanePass(
                            soa,
                            [&](std::size_t i) {
                                return static_cast<std::uint32_t>(
                                    slot_of(i));
                            },
                            states, *luts, accuracy);
                    },
                    [](Automaton &automaton, std::uint8_t state) {
                        automaton.setState(state);
                    });
            break;
          }
          case TableKind::Hashed:
            fused = probeEach(core::HashedLaneProber<Automaton>(
                static_cast<core::HashedTable<Automaton> &>(*table_),
                soa));
            break;
        }
    }
    if (!fused)
        simulateBatch(view.records(), accuracy);
}

void
LeeSmithPredictor::simulateBatch(
    std::span<const trace::BranchRecord> records,
    AccuracyCounter &accuracy)
{
    // Mid predict/update pair, the memo models a shared physical
    // access, so hand off to the reference loop which honours it; so
    // too for an automaton kind with no policy. One probe per branch
    // otherwise: the reference pair does the same via the memo, so
    // the table statistics match. The per-table visitor stays out of
    // line for the reason TwoLevelPredictor's does (registers).
    const bool fused =
        last_entry_ == nullptr &&
        core::visitTable(*table_, [&](auto &table)
                                      __attribute__((noinline)) {
            return fusedLoop(
                [&](auto &&step) {
                    for (const trace::BranchRecord &record : records) {
                        if (record.cls != trace::BranchClass::Conditional)
                            continue;
                        step(table.lookupDirect(record.pc), record.taken);
                    }
                },
                accuracy);
        });
    if (!fused)
        BranchPredictor::simulateBatch(records, accuracy);
}

void
LeeSmithPredictor::reset()
{
    table_->reset();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

namespace
{

constexpr std::uint32_t kCheckpointVersion = 1;

/** Geometry fingerprint, salted per predictor class (0x15b7b = LS). */
std::uint64_t
configFingerprint(const LeeSmithConfig &config)
{
    std::uint64_t fp = 0x15b7b;
    const auto mixIn = [&fp](std::uint64_t value) {
        fp = mix64(fp ^ value);
    };
    mixIn(static_cast<std::uint64_t>(config.tableKind));
    mixIn(config.entries);
    mixIn(config.associativity);
    mixIn(static_cast<std::uint64_t>(config.automaton));
    mixIn(config.addrShift);
    return fp;
}

} // namespace

bool
LeeSmithPredictor::saveCheckpoint(std::ostream &os) const
{
    core::ckpt::writeHeader(os, kCheckpointVersion,
                            configFingerprint(config_));
    table_->saveState(
        os, [](std::ostream &out, const Automaton &automaton) {
            core::ckpt::putScalar(out, automaton.state());
        });
    core::ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
LeeSmithPredictor::loadCheckpoint(std::istream &is)
{
    if (!core::ckpt::readHeader(is, kCheckpointVersion,
                                configFingerprint(config_)))
        return false;
    // Atomic temp-and-swap: the fresh table seeds every entry with
    // the configured automaton kind, the loader only restores the
    // state byte, and the live table_ is untouched unless the whole
    // stream validates.
    const std::uint8_t num_states =
        core::automatonSpec(config_.automaton).numStates;
    std::unique_ptr<core::HistoryTable<Automaton>> table =
        makeTable();
    const bool loaded = table->loadState(
        is, [num_states](std::istream &in, Automaton &automaton) {
            std::uint8_t state;
            if (!core::ckpt::getScalar(in, state) ||
                state >= num_states)
                return false;
            automaton.setState(state);
            return true;
        });
    if (!loaded || !core::ckpt::readEnd(is))
        return false;
    table_ = std::move(table);
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::predictors
