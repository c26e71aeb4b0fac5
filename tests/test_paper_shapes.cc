/**
 * @file
 * Regression guards for the paper's headline results. Every shape
 * predicate of every table in src/paper/ must hold on the small
 * instances, and each table's predicates must reject a hand-edited
 * table that breaks its claim. The bench binaries check the same
 * predicates at paper size; EXPERIMENTS.md records the values.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "paper/paper.hh"

using namespace smtsim;
using namespace smtsim::paper;

namespace
{

/** Each small table is measured once per test run. */
template <class Table>
const Table &
small()
{
    static const Table table = measure<Table>(Size::Small);
    return table;
}

/** Outcome of the predicate @p name on @p table. */
template <class Table>
bool
holds(const Table &table, const std::string &name)
{
    for (const Check &c : check(table))
        if (c.name == name)
            return c.ok;
    ADD_FAILURE() << "no predicate " << name;
    return true;
}

template <class Table>
class PaperTable : public testing::Test
{};

using Tables =
    testing::Types<Table2, Table3, Table4, Table5, Utilization,
                   CacheSweep, RotationSweep, PrivateIcache>;
TYPED_TEST_SUITE(PaperTable, Tables);

} // namespace

TYPED_TEST(PaperTable, EveryPredicateHoldsOnTheSmallInstance)
{
    const std::vector<Check> checks = check(small<TypeParam>());
    EXPECT_FALSE(checks.empty());
    for (const Check &c : checks)
        EXPECT_TRUE(c.ok) << c.name << ": " << c.message;
}

TEST(PaperShapes, Table2RejectsThreefoldTwoSlots)
{
    Table2 t = small<Table2>();
    ASSERT_EQ(t.cells[1].slots, 2);
    t.cells[1].stats.cycles = t.base.cycles / 3;
    EXPECT_FALSE(holds(t, "two-slots-about-2x"));
}

TEST(PaperShapes, Table3RejectsWidthBeatingSlots)
{
    Table3 t = small<Table3>();
    for (auto &c : t.cells)
        if (c.width == 2 && c.slots == 4)
            c.stats.cycles = 1;     // (2,4) > (1,8)
    EXPECT_FALSE(holds(t, "larger-s-wins"));
}

TEST(PaperShapes, Table4RejectsBeatingTheMemoryFloor)
{
    Table4 t = small<Table4>();
    t.cells.back().stats.cycles = 79 * t.iterations / 10;
    EXPECT_FALSE(holds(t, "memory-floor"));
}

TEST(PaperShapes, Table5RejectsGainsPastFourSlots)
{
    Table5 t = small<Table5>();
    t.cells.back().stats.cycles /= 2;
    EXPECT_FALSE(holds(t, "flat-after-4"));
}

TEST(PaperShapes, UtilizationRejectsAnUnsaturatedLsUnit)
{
    Utilization t = small<Utilization>();
    for (auto &c : t.cells)
        if (c.slots == 8 && c.lsu == 1)
            c.stats.cycles *= 2;    // halves every utilization
    EXPECT_FALSE(holds(t, "ls-saturates"));
}

TEST(PaperShapes, CacheRejectsFullyExposedMisses)
{
    // Every miss of the 8-slot, 512-byte run costs its full
    // 20-cycle penalty: nothing is hidden.
    CacheSweep t = small<CacheSweep>();
    auto &perfect = t.cells[8];
    auto &finite = t.cells[11];
    ASSERT_EQ(perfect.dcache_bytes, 0u);
    ASSERT_EQ(finite.dcache_bytes, 512u);
    finite.stats.cycles =
        perfect.stats.cycles + 20 * finite.stats.dcache_misses;
    EXPECT_FALSE(holds(t, "latency-hidden"));
}

TEST(PaperShapes, RotationRejectsAStrongInterval)
{
    RotationSweep t = small<RotationSweep>();
    t.cells.front().stats.cycles = t.cells.back().stats.cycles * 9 / 10;
    EXPECT_FALSE(holds(t, "little-influence"));
}

TEST(PaperShapes, PrivateIcacheRejectsALargeGain)
{
    PrivateIcache t = small<PrivateIcache>();
    ASSERT_TRUE(t.cells[1].private_icache);
    t.cells[1].stats.cycles = t.cells[0].stats.cycles * 10 / 12;
    EXPECT_FALSE(holds(t, "sharing-viable"));
}

TEST(PaperShapes, QueueRegistersBeatMemoryMailboxes)
{
    // Section 2.3.1's design rationale, quantified in
    // bench_doacross.
    RecurrenceParams p;
    p.n = 120;
    p.variant = RecurrenceVariant::DoacrossQueue;
    const Workload q = makeRecurrence(p);
    p.variant = RecurrenceVariant::DoacrossMemory;
    const Workload m = makeRecurrence(p);

    CoreConfig qc;
    qc.num_slots = 4;
    qc.rotation_mode = RotationMode::Explicit;
    CoreConfig mc;
    mc.num_slots = 4;
    const Outcome qo = runCore(q, qc);
    const Outcome mo = runCore(m, mc);
    ASSERT_TRUE(qo.ok && mo.ok);
    EXPECT_GT(static_cast<double>(mo.stats.cycles),
              1.3 * static_cast<double>(qo.stats.cycles));
}
