#include "lee_smith_btb.hh"

#include <utility>

#include "core/checkpoint.hh"
#include "core/contracts.hh"
#include "core/lane_prober.hh"
#include "util/logging.hh"
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
    const Automaton initial(config_.automaton);
    switch (config_.tableKind) {
      case TableKind::Ideal:
        return std::make_unique<core::IdealTable<Automaton>>(
            initial);
      case TableKind::Associative:
        return std::make_unique<core::AssociativeTable<Automaton>>(
            config_.entries, config_.associativity, initial,
            config_.addrShift);
      case TableKind::Hashed:
        return std::make_unique<core::HashedTable<Automaton>>(
            config_.entries, initial, config_.addrShift);
    }
    tlat_panic("unhandled table kind");
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

template <typename Table, core::AutomatonPolicy Ops>
void
LeeSmithPredictor::fusedBatch(
    Table &table, const Ops &ops,
    std::span<const trace::BranchRecord> records,
    AccuracyCounter &accuracy)
{
    for (const trace::BranchRecord &record : records) {
        if (record.cls != trace::BranchClass::Conditional)
            continue;
        // One probe per branch; the reference pair does the same via
        // the predict()/update() memo, so the table statistics match.
        Automaton &automaton = table.lookupDirect(record.pc);
        const bool predicted = ops.predict(automaton.state());
        accuracy.record(predicted == record.taken);
        automaton.setState(ops.next(automaton.state(), record.taken));
    }
}

template <typename Table>
void
LeeSmithPredictor::dispatchAutomaton(
    Table &table, std::span<const trace::BranchRecord> records,
    AccuracyCounter &accuracy)
{
    using core::AutomatonKind;
    using core::AutomatonOps;
    switch (config_.automaton) {
      case AutomatonKind::LastTime:
        fusedBatch(table, AutomatonOps<AutomatonKind::LastTime>{},
                   records, accuracy);
        break;
      case AutomatonKind::A1:
        fusedBatch(table, AutomatonOps<AutomatonKind::A1>{}, records,
                   accuracy);
        break;
      case AutomatonKind::A2:
        fusedBatch(table, AutomatonOps<AutomatonKind::A2>{}, records,
                   accuracy);
        break;
      case AutomatonKind::A3:
        fusedBatch(table, AutomatonOps<AutomatonKind::A3>{}, records,
                   accuracy);
        break;
      case AutomatonKind::A4:
        fusedBatch(table, AutomatonOps<AutomatonKind::A4>{}, records,
                   accuracy);
        break;
      default:
        BranchPredictor::simulateBatch(records, accuracy);
        break;
    }
}

template <typename Prober, core::AutomatonPolicy Ops>
void
LeeSmithPredictor::fusedBatchSoa(Prober &prober, const Ops &ops,
                                 const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // Mirrors fusedBatch(); only the operand sources differ (index
    // lane probe + packed outcome bit), so the equivalence argument
    // carries over unchanged.
    const trace::PredecodedTrace &soa = view.soa();
    const std::span<const trace::BranchId> ids = soa.branchIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Automaton &automaton = prober.probe(ids[i]);
        const bool taken = soa.taken(i);
        const bool predicted = ops.predict(automaton.state());
        accuracy.record(predicted == taken);
        automaton.setState(ops.next(automaton.state(), taken));
    }
}

template <typename Prober>
void
LeeSmithPredictor::dispatchAutomatonSoa(
    Prober &prober, const trace::PredecodedView &view,
    AccuracyCounter &accuracy)
{
    using core::AutomatonKind;
    using core::AutomatonOps;
    switch (config_.automaton) {
      case AutomatonKind::LastTime:
        fusedBatchSoa(prober,
                      AutomatonOps<AutomatonKind::LastTime>{}, view,
                      accuracy);
        break;
      case AutomatonKind::A1:
        fusedBatchSoa(prober, AutomatonOps<AutomatonKind::A1>{},
                      view, accuracy);
        break;
      case AutomatonKind::A2:
        fusedBatchSoa(prober, AutomatonOps<AutomatonKind::A2>{},
                      view, accuracy);
        break;
      case AutomatonKind::A3:
        fusedBatchSoa(prober, AutomatonOps<AutomatonKind::A3>{},
                      view, accuracy);
        break;
      case AutomatonKind::A4:
        fusedBatchSoa(prober, AutomatonOps<AutomatonKind::A4>{},
                      view, accuracy);
        break;
      default:
        simulateBatch(view.records(), accuracy);
        break;
    }
}

void
LeeSmithPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    if (last_entry_ != nullptr) {
        // Mid predict/update pair: the AoS twin owns the fallback to
        // the reference loop, which honours the memo.
        simulateBatch(view.records(), accuracy);
        return;
    }
    switch (config_.tableKind) {
      case TableKind::Ideal: {
        core::IdealLaneProber<Automaton> prober(
            static_cast<core::IdealTable<Automaton> &>(*table_),
            view.soa().uniquePcs());
        dispatchAutomatonSoa(prober, view, accuracy);
        break;
      }
      case TableKind::Associative: {
        // A cold AHRT is one fused pass over a dense copy of the
        // automaton states, indexed by the slot each record is served
        // from: the slot plays the pattern table's part. A warm one
        // takes the AoS loop, which derives set and tag from the pc
        // as cheaply as a lane would.
        const trace::PredecodedTrace &soa = view.soa();
        const auto luts = core::fusedLutsFor(config_.automaton);
        if (luts &&
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
                }))
            break;
        simulateBatch(view.records(), accuracy);
        break;
      }
      case TableKind::Hashed: {
        core::HashedLaneProber<Automaton> prober(
            static_cast<core::HashedTable<Automaton> &>(*table_),
            view.soa());
        dispatchAutomatonSoa(prober, view, accuracy);
        break;
      }
    }
}

void
LeeSmithPredictor::simulateBatch(
    std::span<const trace::BranchRecord> records,
    AccuracyCounter &accuracy)
{
    if (last_entry_ != nullptr) {
        // Mid predict/update pair: the memo models a shared physical
        // access, so hand off to the reference loop which honours it.
        BranchPredictor::simulateBatch(records, accuracy);
        return;
    }
    switch (config_.tableKind) {
      case TableKind::Ideal:
        dispatchAutomaton(
            static_cast<core::IdealTable<Automaton> &>(*table_),
            records, accuracy);
        break;
      case TableKind::Associative:
        dispatchAutomaton(
            static_cast<core::AssociativeTable<Automaton> &>(*table_),
            records, accuracy);
        break;
      case TableKind::Hashed:
        dispatchAutomaton(
            static_cast<core::HashedTable<Automaton> &>(*table_),
            records, accuracy);
        break;
    }
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
