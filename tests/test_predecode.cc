/**
 * @file
 * Unit tests for the trace predecode layer (trace/predecode.hh): the
 * first-appearance branch-id dictionary, the packed outcome
 * bitvector, the per-geometry HHRT index lane and AHRT resolution
 * (which must match the history tables' own index derivations and
 * LRU decisions bit-for-bit), and the
 * build-once sharing/invalidation rules of the TraceBuffer cache.
 */

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/history_table.hh"
#include "sim/simulator.hh"
#include "trace/trace_buffer.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace tlat::trace
{
namespace
{

BranchRecord
conditional(std::uint64_t pc, bool taken)
{
    BranchRecord r;
    r.pc = pc;
    r.target = pc + 16;
    r.cls = BranchClass::Conditional;
    r.taken = taken;
    return r;
}

TraceBuffer
randomTrace(std::uint64_t seed, std::size_t records,
            std::uint64_t sites)
{
    TraceBuffer buffer("predecode");
    Rng rng(seed);
    for (std::size_t i = 0; i < records; ++i) {
        buffer.append(conditional(4 * (1 + rng.nextBelow(sites)),
                                  rng.nextBool(0.6)));
    }
    return buffer;
}

TEST(Predecode, DictionaryAssignsIdsInFirstAppearanceOrder)
{
    TraceBuffer buffer("dict");
    buffer.append(conditional(40, true));
    buffer.append(conditional(8, false));
    buffer.append(conditional(40, true));
    buffer.append(conditional(24, false));
    buffer.append(conditional(8, true));

    const auto soa = buffer.predecoded();
    ASSERT_EQ(soa->size(), 5u);
    ASSERT_EQ(soa->uniquePcCount(), 3u);
    const std::vector<std::uint64_t> pcs(soa->uniquePcs().begin(),
                                         soa->uniquePcs().end());
    EXPECT_EQ(pcs, (std::vector<std::uint64_t>{40, 8, 24}));
    const std::vector<BranchId> ids(soa->branchIds().begin(),
                                    soa->branchIds().end());
    EXPECT_EQ(ids, (std::vector<BranchId>{0, 1, 0, 2, 1}));
}

TEST(Predecode, OutcomeBitvectorMatchesRecords)
{
    const TraceBuffer buffer = randomTrace(0xb17, 1000, 37);
    const auto soa = buffer.predecoded();
    const auto view = buffer.conditionalView();
    ASSERT_EQ(soa->size(), view.size());
    for (std::size_t i = 0; i < view.size(); ++i)
        ASSERT_EQ(soa->taken(i), view[i].taken) << "bit " << i;
    // 1000 bits need 16 words (pinned: one u64 per 64 outcomes).
    EXPECT_EQ(soa->outcomeWords().size(), 16u);
}

/**
 * Holds ahrtResolution(shift, sets, ways) to a cold
 * AssociativeTable::lookupDirect loop over the same conditionals: the
 * way each record lands in (read back as the way whose recency is
 * the current tick), the final replacement image, the tick, and the
 * hit/miss/eviction counts.
 */
void
expectResolutionMatchesColdTable(const TraceBuffer &buffer,
                                 std::size_t entries, unsigned ways)
{
    const auto soa = buffer.predecoded();
    core::AssociativeTable<int> table(entries, ways, 0);
    const AhrtResolution &resolution = soa->ahrtResolution(
        table.addrShift(), table.numSets(), table.associativity());
    ASSERT_EQ(resolution.sets.size(), soa->uniquePcCount());
    ASSERT_EQ(resolution.ways.size(), soa->size());

    const std::span<const BranchRecord> records =
        buffer.conditionalView();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t line = records[i].pc >> table.addrShift();
        const std::size_t set = line & (table.numSets() - 1);
        ASSERT_EQ(resolution.sets[soa->branchIds()[i]], set)
            << "record " << i;
        table.lookupDirect(records[i].pc);
        const std::vector<util::LruWay> image = table.replacementImage();
        unsigned touched = ways;
        for (unsigned w = 0; w < ways; ++w) {
            if (image[set * ways + w].lastUse == table.tick())
                touched = w;
        }
        ASSERT_EQ(resolution.ways[i], touched) << "record " << i;
    }
    EXPECT_EQ(resolution.image, table.replacementImage());
    EXPECT_EQ(resolution.tick, table.tick());
    EXPECT_EQ(resolution.hits, table.stats().hits);
    EXPECT_EQ(resolution.misses, table.stats().misses);
    EXPECT_EQ(resolution.evictions, table.stats().evictions);
    EXPECT_EQ(resolution.evictions, table.stats().aliasedLookups);
}

TEST(Predecode, AhrtResolutionMatchesColdTableReplay)
{
    // The paper's 512-entry 4-way AHRT over a real workload, plus two
    // eviction-heavy geometries where nearly every miss displaces a
    // live way: 8 entries x 4 ways (two sets) and 4 x 1 (direct
    // mapped).
    const TraceBuffer gcc = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 30000);
    const TraceBuffer random = randomTrace(0xa427, 4000, 301);
    for (const TraceBuffer *buffer : {&gcc, &random}) {
        for (const auto &[entries, ways] :
             {std::pair<std::size_t, unsigned>{512, 4},
              std::pair<std::size_t, unsigned>{8, 4},
              std::pair<std::size_t, unsigned>{4, 1}}) {
            SCOPED_TRACE(buffer->name() + " " +
                         std::to_string(entries) + "x" +
                         std::to_string(ways));
            expectResolutionMatchesColdTable(*buffer, entries, ways);
        }
    }
    // The small geometries must actually evict, or they pin nothing.
    EXPECT_GT(gcc.predecoded()->ahrtResolution(2, 2, 4).evictions,
              gcc.predecoded()->size() / 4);
}

TEST(Predecode, AhrtResolutionKeyIncludesWays)
{
    // 8 sets x 1 way and 8 sets x 4 ways share shift and set count
    // but not the replacement decisions.
    const TraceBuffer buffer = randomTrace(0x3a75, 3000, 97);
    const auto soa = buffer.predecoded();
    const AhrtResolution &direct = soa->ahrtResolution(2, 8, 1);
    const AhrtResolution &four_way = soa->ahrtResolution(2, 8, 4);
    EXPECT_NE(&direct, &four_way);
    EXPECT_EQ(direct.image.size(), 8u);
    EXPECT_EQ(four_way.image.size(), 32u);
    EXPECT_GT(direct.evictions, four_way.evictions);
    EXPECT_EQ(&direct, &soa->ahrtResolution(2, 8, 1));
}

TEST(Predecode, HashedLaneMatchesHashedTableDerivation)
{
    const TraceBuffer buffer = randomTrace(0x4a5e, 2000, 301);
    const auto soa = buffer.predecoded();

    for (const core::HashKind hash :
         {core::HashKind::LowBits, core::HashKind::Mixed}) {
        const core::HashedTable<int> table(
            256, 0, 2, hash);
        const HashedLane &lane = soa->hashedLane(
            table.addrShift(), table.size(),
            table.hashKind() == core::HashKind::Mixed);
        ASSERT_EQ(lane.indices.size(), soa->uniquePcCount());
        for (std::size_t id = 0; id < soa->uniquePcCount(); ++id) {
            const std::uint64_t line =
                soa->uniquePcs()[id] >> table.addrShift();
            EXPECT_EQ(lane.lines[id], line);
            EXPECT_EQ(lane.indices[id], table.indexOfLine(line));
        }
    }
}

TEST(Predecode, LanesAreCachedPerGeometry)
{
    const TraceBuffer buffer = randomTrace(0xcac4e, 500, 31);
    const auto soa = buffer.predecoded();
    const AhrtResolution &a = soa->ahrtResolution(2, 32, 4);
    const AhrtResolution &b = soa->ahrtResolution(2, 32, 4);
    EXPECT_EQ(&a, &b);
    const AhrtResolution &c = soa->ahrtResolution(2, 64, 4);
    EXPECT_NE(&a, &c);
    const AhrtResolution &d = soa->ahrtResolution(3, 32, 4);
    EXPECT_NE(&a, &d);
    const HashedLane &h1 = soa->hashedLane(2, 64, false);
    const HashedLane &h2 = soa->hashedLane(2, 64, false);
    const HashedLane &h3 = soa->hashedLane(2, 64, true);
    EXPECT_EQ(&h1, &h2);
    EXPECT_NE(&h1, &h3);
}

TEST(Predecode, BufferCacheIsSharedAndInvalidatedByGrowth)
{
    TraceBuffer buffer = randomTrace(0x9a3, 100, 11);
    const auto first = buffer.predecoded();
    const auto second = buffer.predecoded();
    EXPECT_EQ(first.get(), second.get()); // build once, re-share

    buffer.append(conditional(4, true));
    const auto rebuilt = buffer.predecoded();
    EXPECT_NE(first.get(), rebuilt.get());
    EXPECT_EQ(rebuilt->size(), first->size() + 1);

    // The old artifact stays valid for holders of the shared_ptr.
    EXPECT_EQ(first->size(), 100u);
}

TEST(Predecode, CopiedBufferGetsItsOwnCacheSlot)
{
    TraceBuffer original = randomTrace(0xc09, 50, 7);
    const auto original_soa = original.predecoded();

    TraceBuffer copy = original;
    const auto copy_soa = copy.predecoded();
    EXPECT_NE(original_soa.get(), copy_soa.get());
    EXPECT_EQ(copy_soa->size(), original_soa->size());

    // Diverging the copy must never poison the original's artifact.
    copy.append(conditional(4, false));
    copy.predecoded();
    EXPECT_EQ(original.predecoded().get(), original_soa.get());
}

TEST(Predecode, ViewPairsLanesWithFallbackRecords)
{
    const TraceBuffer buffer = randomTrace(0x71e3, 300, 23);
    const PredecodedView view = buffer.predecodedView();
    EXPECT_EQ(view.records().data(),
              buffer.conditionalView().data());
    EXPECT_EQ(view.records().size(),
              buffer.conditionalView().size());
    EXPECT_EQ(&view.soa(), buffer.predecoded().get());
}

TEST(Predecode, EmptyAndNonConditionalTraces)
{
    TraceBuffer empty("empty");
    EXPECT_EQ(empty.predecoded()->size(), 0u);
    EXPECT_EQ(empty.predecoded()->uniquePcCount(), 0u);

    TraceBuffer unconditional("uncond");
    BranchRecord r;
    r.pc = 4;
    r.cls = BranchClass::Return;
    r.taken = true;
    unconditional.append(r);
    const auto soa = unconditional.predecoded();
    EXPECT_EQ(soa->size(), 0u);
    EXPECT_TRUE(soa->outcomeWords().empty());
}

TEST(Predecode, ConcurrentLaneBuildsShareOneLane)
{
    const TraceBuffer buffer = randomTrace(0x7412ead, 5000, 997);
    const auto soa = buffer.predecoded();

    // Eight threads race for one geometry's resolution: one build,
    // one shared artifact, the same contents a lone request gets.
    std::vector<const AhrtResolution *> seen(8, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(seen.size());
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&soa, &seen, t] {
            seen[t] = &soa->ahrtResolution(2, 128, 4);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const AhrtResolution *resolution : seen)
        EXPECT_EQ(resolution, seen[0]);
    const auto fresh = TraceBuffer(buffer).predecoded();
    const AhrtResolution &alone = fresh->ahrtResolution(2, 128, 4);
    EXPECT_EQ(seen[0]->ways, alone.ways);
    EXPECT_EQ(seen[0]->image, alone.image);
}

} // namespace
} // namespace tlat::trace
