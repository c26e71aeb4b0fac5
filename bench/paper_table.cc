/**
 * @file
 * The main of each paper-table bench (bench_table2..5,
 * bench_utilization, bench_cache, bench_rotation and
 * bench_private_icache), built once per table with
 * SMTSIM_PAPER_TABLE naming its type in src/paper/paper.hh. It
 * prints the table at paper size and exits 1 with a stderr message
 * when a shape predicate fails.
 */

#include "bench_common.hh"
#include "paper/paper.hh"

using namespace smtsim;

int
main()
{
    using Table = paper::SMTSIM_PAPER_TABLE;
    const Table table = paper::measure<Table>(paper::Size::Paper,
                                              bench::benchLabOptions());
    paper::print(table, std::cout);
    int status = 0;
    for (const paper::Check &c : paper::check(table)) {
        if (!c.ok) {
            std::cerr << "SHAPE FAILURE (" << c.name
                      << "): " << c.message << std::endl;
            status = 1;
        }
    }
    return status;
}
