/**
 * @file
 * The paper's evaluation, defined once: for Tables 2-5 of Hirata et
 * al., the section 3.2 sweeps and the finite-cache extension, the
 * cells each table runs, the paper value of each cell and the shape
 * predicates EXPERIMENTS.md states.
 *
 * The bench binaries measure each table at Size::Paper, print it and
 * fail when a predicate does; tests/test_paper_shapes.cc checks the
 * same predicates at Size::Small. Every cell a lab::Job can express
 * runs through one lab::runJobs call per table; Table 4's strategy A
 * and B programs are built from a schedule, not a WorkloadSpec, so
 * its cells call runCore directly.
 *
 * addPaperTables() in perfbench/runner/oplist.cc keeps its own copy
 * of the Table 2-5 grids and paper values on purpose: the
 * benchmark's op list is frozen and must not move with this module.
 */

#ifndef SMTSIM_PAPER_PAPER_HH
#define SMTSIM_PAPER_PAPER_HH

#include <ostream>
#include <string>
#include <vector>

#include "lab/lab.hh"

namespace smtsim::paper
{

/** Workload size: the paper-size instances or the small ones. */
enum class Size { Paper, Small };

/** The ray tracer of Tables 2 and 3 and the ray-tracing sweeps. */
lab::WorkloadSpec rayTraceSpec(Size size);

/**
 * A table's cells, in the order its bench prints them, each a grid
 * point (Key), the paper's value for it (0 where the paper gives
 * none) and its run; the sequential base RISC run for tables of
 * speed-ups; the loop iterations per run for tables of cycles per
 * iteration.
 */
template <class Key>
struct Table
{
    struct Cell : Key
    {
        double paper = 0;
        RunStats stats{};
    };
    RunStats base;
    int iterations = 1;
    std::vector<Cell> cells;
};

// The grid point of each table's cells.
struct Table2Key { int slots, lsu; bool standby; };
struct Table3Key { int width, slots; };
/** strategy: 0 = source order, 1 = A, 2 = B. */
struct Table4Key { int slots, strategy; };
struct Table5Key { int slots; };
struct UtilizationKey { int slots, lsu; };
/** dcache_bytes 0 is the perfect cache. */
struct CacheKey { int slots; Addr dcache_bytes; };
struct RotationKey { int interval; };
struct PrivateIcacheKey { int slots, lsu; bool private_icache; };

using Table2 = Table<Table2Key>;
using Table3 = Table<Table3Key>;
using Table4 = Table<Table4Key>;
using Table5 = Table<Table5Key>;
using Utilization = Table<UtilizationKey>;
using CacheSweep = Table<CacheKey>;
using RotationSweep = Table<RotationKey>;
using PrivateIcache = Table<PrivateIcacheKey>;

/** Outcome of one shape predicate. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string message;
};

/** Run one of the tables above; print() renders it as its bench
 *  prints it. @throws std::runtime_error naming the first cell that
 *  failed to finish or verify. */
template <class T>
T measure(Size size, const lab::LabOptions &opts = {});

void print(const Table2 &t, std::ostream &os);
void print(const Table3 &t, std::ostream &os);
void print(const Table4 &t, std::ostream &os);
void print(const Table5 &t, std::ostream &os);
void print(const Utilization &t, std::ostream &os);
void print(const CacheSweep &t, std::ostream &os);
void print(const RotationSweep &t, std::ostream &os);
void print(const PrivateIcache &t, std::ostream &os);

/** A table's shape predicates, one Check each. @throws
 *  std::out_of_range when a compared cell is missing. */
std::vector<Check> check(const Table2 &t);
std::vector<Check> check(const Table3 &t);
std::vector<Check> check(const Table4 &t);
std::vector<Check> check(const Table5 &t);
std::vector<Check> check(const Utilization &t);
std::vector<Check> check(const CacheSweep &t);
std::vector<Check> check(const RotationSweep &t);
std::vector<Check> check(const PrivateIcache &t);

} // namespace smtsim::paper

#endif // SMTSIM_PAPER_PAPER_HH
