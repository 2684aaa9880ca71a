/**
 * @file
 * Trace predecode: immutable structure-of-arrays "hot lanes" compiled
 * once per trace and shared read-only by every simulation that replays
 * it.
 *
 * The sweep engine replays the same immutable trace through dozens of
 * predictor configurations (the paper's Figures 5-10 all reuse one
 * trace per benchmark), yet the AoS fused loop from the batch API
 * still re-derives everything from the 24-byte BranchRecord once per
 * branch per cell: the IHRT hashes the pc into an unordered_map, the
 * AHRT re-computes set/tag, the HHRT re-runs mix64. Predecoding hoists
 * all of that per-PC work out of the per-cell loops:
 *
 *  - a dense static-branch-id lane: each unique conditional PC is
 *    mapped once, at first appearance, to a small integer through a
 *    per-trace dictionary, so per-branch state can live in plain
 *    vectors indexed by id (no hashing on the hot path at all);
 *  - a packed outcome bitvector (one bit per conditional, 64 per
 *    word) replacing the one-byte-per-record taken flag;
 *  - a lazily built per-geometry HHRT index lane: the hashed slot
 *    and address line of every *unique* PC, computed once per
 *    (trace, geometry) instead of once per branch per cell;
 *  - a lazily built per-geometry AHRT resolution: the AHRT's LRU
 *    replacement decisions depend only on the pc stream, never on
 *    outcomes or payloads, so they are replayed once per (trace,
 *    addr shift, sets, ways) into a one-byte way lane plus the final
 *    way image, tick and hit/miss/eviction counts of a cold table. A
 *    predictor whose AHRT is still cold runs its whole batch as a
 *    dense-array lane pass over that lane and then adopts the image
 *    (core/lane_prober.hh); a warm one takes the AoS loop.
 *
 * Everything here is a pure function of the conditional record stream
 * (and, for index lanes, the table geometry), so a predecoded trace
 * built by any thread is bit-identical to one built by any other —
 * sharing it across sweep shards cannot perturb results at any --jobs
 * count. The dense lanes are immutable after construction; the lane
 * cache is guarded by a mutex so concurrent cells that need the same
 * geometry build it once and share the result. Lanes are built on
 * first request, so a sweep pays for them in its simulate phase and
 * only for the geometries its schemes use.
 */

#ifndef TLAT_TRACE_PREDECODE_HH
#define TLAT_TRACE_PREDECODE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "record.hh"
#include "util/lru.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace tlat::trace
{

/** Dense per-trace identifier of a unique conditional-branch PC. */
using BranchId = std::uint32_t;

/**
 * The AHRT's replacement decisions for one geometry, resolved once
 * per trace by replaying util::lruAccess — the rule
 * core::AssociativeTable applies per probe — from a cold table
 * (tick 0, every way invalid) over the pc stream. Pinned against a
 * cold AssociativeTable::lookupDirect loop by tests/test_predecode.
 */
struct AhrtResolution
{
    /** Largest associativity the one-byte way lane can name. */
    static constexpr unsigned kMaxWays = 256;

    /**
     * Set index of each unique PC, in branch-id order (line = pc >>
     * shift, set = line & (sets-1), as lookupDirect derives it).
     */
    std::vector<std::uint32_t> sets;
    /**
     * The way (within its set) each conditional is served from, in
     * trace order: record i lives in table slot
     * sets[id(i)] * ways + ways[i] for the whole batch.
     */
    std::vector<std::uint8_t> ways;
    /** Replacement state of every way after the replay, set-major. */
    std::vector<util::LruWay> image;
    /** The table's access clock after the replay. */
    std::uint64_t tick = 0;
    /** Access counts of the replay (every eviction also aliases). */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/**
 * Per-geometry HHRT index lane: the hashed slot index and the address
 * line (the HHRT's aliasing-attribution key) of each unique PC, in
 * branch-id order. Derivation matches core::HashedTable::lookupDirect
 * (index = (mixed ? mix64(line) : line) & (size-1)).
 */
struct HashedLane
{
    std::vector<std::uint32_t> indices;
    std::vector<std::uint64_t> lines;
};

/** The predecoded (SoA) form of one trace's conditional stream. */
class PredecodedTrace
{
  public:
    /** Bits per packed-outcome word (layout pinned in contracts.hh). */
    static constexpr unsigned kOutcomeWordBits = 64;

    /**
     * Compiles @p conditionals (a conditional-only span, trace order)
     * into the dense lanes. Non-conditional records are not allowed
     * here — callers pass TraceBuffer::conditionalView().
     */
    explicit PredecodedTrace(std::span<const BranchRecord> conditionals);

    /** Number of conditional branches (dense-lane length). */
    std::size_t size() const { return ids_.size(); }

    /** Static-branch id of each conditional, in trace order. */
    std::span<const BranchId> branchIds() const { return ids_; }

    /** Outcome of conditional @p i (packed bitvector read). */
    bool
    taken(std::size_t i) const
    {
        return ((outcome_words_[i / kOutcomeWordBits] >>
                 (i % kOutcomeWordBits)) &
                1u) != 0;
    }

    /** The packed outcome words (tests; size() bits are valid). */
    std::span<const std::uint64_t>
    outcomeWords() const
    {
        return outcome_words_;
    }

    /** Unique conditional PCs indexed by BranchId (dictionary). */
    std::span<const std::uint64_t> uniquePcs() const { return pcs_; }

    /** Number of unique conditional PCs in the trace. */
    std::size_t uniquePcCount() const { return pcs_.size(); }

    /**
     * The AHRT resolution for one table geometry, built on first
     * request and cached for the trace's lifetime. Thread-safe: sweep
     * cells that share a geometry share one resolution. @p ways must
     * be at most AhrtResolution::kMaxWays.
     */
    const AhrtResolution &ahrtResolution(unsigned addr_shift,
                                         std::size_t num_sets,
                                         unsigned ways) const;

    /**
     * True once ahrtResolution() has been asked for this geometry —
     * how tests see that a sweep cell took the cold-AHRT lane pass,
     * which is otherwise bit-identical to the AoS loop.
     */
    bool hasAhrtResolution(unsigned addr_shift, std::size_t num_sets,
                           unsigned ways) const;

    /** The HHRT index lane for one table geometry (same caching). */
    const HashedLane &hashedLane(unsigned addr_shift,
                                 std::size_t table_size,
                                 bool mixed) const;

  private:
    std::vector<BranchId> ids_;
    std::vector<std::uint64_t> outcome_words_;
    std::vector<std::uint64_t> pcs_;

    // Geometry-keyed lane caches. std::map: iteration order is never
    // observable (lookup only), and the deterministic comparator
    // avoids hash-order questions outright. unique_ptr keeps lane
    // references stable across cache growth.
    using AhrtKey = std::tuple<unsigned, std::size_t, unsigned>;
    using HashedKey = std::tuple<unsigned, std::size_t, bool>;
    mutable util::Mutex lanes_mutex_;
    mutable std::map<AhrtKey, std::unique_ptr<const AhrtResolution>>
        ahrt_resolutions_ TLAT_GUARDED_BY(lanes_mutex_);
    mutable std::map<HashedKey, std::unique_ptr<const HashedLane>>
        hashed_lanes_ TLAT_GUARDED_BY(lanes_mutex_);
};

/**
 * What a predictor receives for a batch run over a predecoded trace:
 * the SoA lanes plus the AoS conditional span the lanes were compiled
 * from, so any predictor (or any mode whose fast path is unsafe —
 * delayed updates, mid-pair memo state) can fall back to the existing
 * reference twin via records().
 */
class PredecodedView
{
  public:
    PredecodedView(std::span<const BranchRecord> conditionals,
                   std::shared_ptr<const PredecodedTrace> soa)
        : conditionals_(conditionals), soa_(std::move(soa))
    {
    }

    /** The AoS conditional records the lanes mirror (fallback path). */
    std::span<const BranchRecord> records() const
    {
        return conditionals_;
    }

    /** The shared SoA lanes. */
    const PredecodedTrace &soa() const { return *soa_; }

    /** The owning handle (plumbing that re-shares the artifact). */
    const std::shared_ptr<const PredecodedTrace> &shared() const
    {
        return soa_;
    }

  private:
    std::span<const BranchRecord> conditionals_;
    std::shared_ptr<const PredecodedTrace> soa_;
};

/**
 * Build-once cache slot embedded (via shared_ptr, to keep TraceBuffer
 * movable) in each TraceBuffer. get() compiles the predecoded form on
 * first use and re-shares it afterwards; a grown conditional stream
 * (trace still being recorded) is detected by length and recompiled.
 */
class PredecodeCache
{
  public:
    std::shared_ptr<const PredecodedTrace>
    get(std::span<const BranchRecord> conditionals)
    {
        const util::MutexLock lock(mutex_);
        if (!trace_ || trace_->size() != conditionals.size()) {
            trace_ =
                std::make_shared<const PredecodedTrace>(conditionals);
        }
        return trace_;
    }

    void
    invalidate()
    {
        const util::MutexLock lock(mutex_);
        trace_.reset();
    }

  private:
    util::Mutex mutex_;
    std::shared_ptr<const PredecodedTrace> trace_
        TLAT_GUARDED_BY(mutex_);
};

} // namespace tlat::trace

#endif // TLAT_TRACE_PREDECODE_HH
