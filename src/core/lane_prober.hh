/**
 * @file
 * The glue between a predecoded trace (trace/predecode.hh) and the
 * history-table storage flavours: index-lane probers, and the one
 * lane-pass helper every prediction-independent first level runs
 * through.
 *
 * Probers wrap one concrete table and answer probe(id) — "the entry
 * for static branch @p id" — from what the predecode layer
 * precomputed for that table's geometry:
 *
 *  - IdealLaneProber: a per-id pointer lane. The first probe of an id
 *    pays the one unordered_map lookup (which also books the
 *    reference loop's hit-or-miss for that first touch, warm tables
 *    included); every repeat is a direct vector index plus a
 *    noteRepeatHit() — no hashing on the steady-state path at all.
 *  - HashedLaneProber: reads the precomputed slot index (the mix64 is
 *    paid once per unique PC per geometry, not once per branch) from
 *    the trace's HHRT lane and probes via lookupAtIndex().
 *
 * The AHRT has no prober. A cold AHRT (AssociativeTable::
 * replacementCold()) is served by the trace's AHRT resolution — the
 * way of every record, resolved once per trace — through a lane pass
 * over a dense per-slot payload copy, after which the table adopts
 * the resolution's image. A warm AHRT takes the AoS loop, which
 * derives set and tag from the pc as cheaply as a lane would (Static
 * Training, which has no AoS loop, derives them once per unique pc
 * per batch).
 *
 * forEachLaneTile()/fusedLanePass() are the shared lane pass. When a
 * first level's evolution does not depend on the predictions (no
 * speculation, no cached bit), each record's pattern-table index can
 * be computed before any automaton state is touched; the pass builds
 * those indexes into an L1-resident tile and hands each tile to
 * util::simd::fusedPass (or, for Static Training, to a preset-bit
 * read). Two-Level over IHRT, AHRT and HHRT, Lee-Smith over a cold
 * AHRT (the slot itself is the "pattern"), Static Training over a
 * cold AHRT and the generalized predictor's global-pattern-table
 * scopes (GAg, PAg, SAg, gshare) all run through it.
 *
 * Every path produces bit-identical table state and statistics to a
 * lookupDirect(pc)-per-branch loop; tests/test_simulate_batch_fuzz
 * and tests/test_history_table hold them to it.
 */

#ifndef TLAT_CORE_LANE_PROBER_HH
#define TLAT_CORE_LANE_PROBER_HH

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "automaton.hh"
#include "history_table.hh"
#include "trace/predecode.hh"
#include "util/simd.hh"
#include "util/stats.hh"

namespace tlat::core
{

/**
 * The fused-pass automaton tables for @p kind, or for an n-bit
 * saturating counter when @p counter_bits is non-zero; nullopt when
 * the policy does not fit the kernels' 16-entry nibble LUTs
 * (counters wider than 4 bits) or @p kind has none.
 */
inline std::optional<util::simd::FusedLuts>
fusedLutsFor(AutomatonKind kind, unsigned counter_bits = 0)
{
    if (counter_bits > 4)
        return std::nullopt;
    // Every state index a policy can reach; the two-state LT's unused
    // rows 2 and 3 predict not-taken and step to 0, as zeroed LUTs do.
    const unsigned states = counter_bits > 0 ? 1u << counter_bits : 4;
    util::simd::FusedLuts luts{};
    if (!visitAutomaton(kind, counter_bits, [&](const auto &ops) {
            for (unsigned s = 0; s < states; ++s) {
                const auto state = static_cast<std::uint8_t>(s);
                luts.predict[s] = ops.predict(state) ? 1 : 0;
                luts.nextTaken[s] = ops.next(state, true);
                luts.nextNotTaken[s] = ops.next(state, false);
            }
        }))
        return std::nullopt;
    return luts;
}

/** Records per lane tile: 16 KiB of u32 indexes, L1-resident. */
inline constexpr std::size_t kLaneTile = 4096;
static_assert(kLaneTile % 64 == 0,
              "tiles start on an outcome-word boundary");

/**
 * Walks the @p n records of a batch in tiles of kLaneTile: fills a
 * tile with index(i) for each record i, in trace order, then calls
 * pass(lane, base, count) for records [base, base + count). The tile
 * stays in L1 between its write and its read instead of
 * round-tripping an n-record lane through L2/L3; it has
 * util::simd::kLaneSlack readable entries past count, and base is a
 * multiple of 64, so a pass may start its outcome bits at word
 * base / 64.
 */
template <typename IndexFn, typename PassFn>
void
forEachLaneTile(std::size_t n, IndexFn &&index, PassFn &&pass)
{
    std::uint32_t lane[kLaneTile + util::simd::kLaneSlack] = {};
    for (std::size_t base = 0; base < n; base += kLaneTile) {
        const std::size_t count = std::min(kLaneTile, n - base);
        for (std::size_t i = 0; i < count; ++i)
            lane[i] = index(base + i);
        pass(static_cast<const std::uint32_t *>(lane), base, count);
    }
}

/**
 * The pattern-table form of forEachLaneTile: record i reads and
 * updates @p states[index(i)] through util::simd::fusedPass with
 * @p luts, and the batch's hits (and capture bytes, when attached)
 * land in @p accuracy. @p states must extend
 * util::simd::kGatherSlackBytes past its largest index.
 */
template <typename IndexFn>
void
fusedLanePass(const trace::PredecodedTrace &soa, IndexFn &&index,
              std::uint8_t *states, const util::simd::FusedLuts &luts,
              AccuracyCounter &accuracy)
{
    const std::uint64_t *outcome_words = soa.outcomeWords().data();
    std::uint8_t *capture = accuracy.captureCursor();
    std::uint64_t hits = 0;
    forEachLaneTile(
        soa.size(), index,
        [&](const std::uint32_t *lane, std::size_t base,
            std::size_t count) {
            hits += util::simd::fusedPass(
                lane, outcome_words + base / 64, count, states, luts,
                capture == nullptr ? nullptr : capture + base);
        });
    accuracy.recordBulk(hits, soa.size());
}

/**
 * The cold-AHRT lane pass. When @p table is cold and its geometry
 * fits the one-byte way lane, resolves the trace (once per trace and
 * geometry), copies each slot's payload into a dense array of @p T
 * through @p load(entry), calls @p run(dense, slot_of) with
 * slot_of(i) = the slot record i is served from, stores the dense
 * values back through @p store(entry, value) and makes the table
 * adopt the resolution. The dense array has
 * util::simd::kGatherSlackBytes spare entries, so a byte array can
 * serve as fusedPass states. Returns false, touching nothing, when
 * the table is not cold — the caller then takes its AoS loop.
 */
template <typename T, typename Entry, typename Load, typename Run,
          typename Store>
bool
coldAhrtPass(AssociativeTable<Entry> &table,
             const trace::PredecodedTrace &soa, Load &&load, Run &&run,
             Store &&store)
{
    const unsigned ways = table.associativity();
    if (ways > trace::AhrtResolution::kMaxWays ||
        !table.replacementCold())
        return false;
    const trace::AhrtResolution &resolution =
        soa.ahrtResolution(table.addrShift(), table.numSets(), ways);
    std::vector<T> dense(table.slotCount() +
                         util::simd::kGatherSlackBytes);
    for (std::size_t slot = 0; slot < table.slotCount(); ++slot)
        dense[slot] = load(table.entryAt(slot));
    const std::span<const trace::BranchId> ids = soa.branchIds();
    const std::uint32_t *sets = resolution.sets.data();
    const std::uint8_t *way_lane = resolution.ways.data();
    run(dense.data(), [&](std::size_t i) -> std::size_t {
        return std::size_t{sets[ids[i]]} * ways + way_lane[i];
    });
    for (std::size_t slot = 0; slot < table.slotCount(); ++slot)
        store(table.entryAt(slot), dense[slot]);
    table.adopt(resolution);
    return true;
}

/** IHRT prober: hash each unique PC once, then index a pointer lane. */
template <typename Entry>
class IdealLaneProber
{
  public:
    IdealLaneProber(IdealTable<Entry> &table,
                    std::span<const std::uint64_t> unique_pcs)
        : table_(table), unique_pcs_(unique_pcs),
          slots_(unique_pcs.size(), nullptr)
    {
    }

    Entry &
    probe(trace::BranchId id)
    {
        Entry *&slot = slots_[id];
        if (slot == nullptr) {
            // First touch in this batch: the real lookup books the
            // hit (warm table) or miss (fresh allocation) exactly as
            // the reference loop would. unordered_map references are
            // node-stable, so the cached pointer survives growth.
            slot = &table_.lookupDirect(unique_pcs_[id]);
        } else {
            table_.noteRepeatHit();
        }
        return *slot;
    }

  private:
    IdealTable<Entry> &table_;
    std::span<const std::uint64_t> unique_pcs_;
    std::vector<Entry *> slots_;
};

/** HHRT prober: slot index from the per-geometry lane (no re-hash). */
template <typename Entry>
class HashedLaneProber
{
  public:
    HashedLaneProber(HashedTable<Entry> &table,
                     const trace::PredecodedTrace &soa)
        : table_(table),
          lane_(soa.hashedLane(table.addrShift(), table.size(),
                               table.hashKind() == HashKind::Mixed))
    {
    }

    Entry &
    probe(trace::BranchId id)
    {
        return table_.lookupAtIndex(lane_.indices[id],
                                    lane_.lines[id]);
    }

  private:
    HashedTable<Entry> &table_;
    const trace::HashedLane &lane_;
};

} // namespace tlat::core

#endif // TLAT_CORE_LANE_PROBER_HH
