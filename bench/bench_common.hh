/**
 * @file
 * Shared helpers for the table-reproduction benchmark binaries.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation (section 3) and prints, side by side, the values the
 * paper reports and the values measured on this reproduction. The
 * absolute numbers differ (different compiler, different workload
 * build), but the shape — who wins, by what factor, where the
 * saturation points fall — is the reproduction target. Results are
 * summarized in EXPERIMENTS.md.
 */

#ifndef SMTSIM_BENCH_BENCH_COMMON_HH
#define SMTSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include <unistd.h>

#include "base/strutil.hh"
#include "base/table.hh"
#include "harness/runner.hh"
#include "lab/lab.hh"

namespace smtsim::bench
{

/**
 * Execution policy for the grid-sweep benches. Defaults: all host
 * cores, no cache (a stale cache must never alter published table
 * values). Overridable for measurement runs:
 *   SMTSIM_LAB_JOBS=N        worker threads (1 = the serial path)
 *   SMTSIM_LAB_CACHE_DIR=DIR reuse results across reruns
 * A progress line is shown when stderr is a terminal.
 */
inline lab::LabOptions
benchLabOptions()
{
    lab::LabOptions opts;
    if (const char *jobs = std::getenv("SMTSIM_LAB_JOBS"))
        opts.num_threads = std::atoi(jobs);
    if (const char *dir = std::getenv("SMTSIM_LAB_CACHE_DIR"))
        opts.cache_dir = dir;
    if (isatty(fileno(stderr)))
        opts.progress = lab::stderrProgress();
    return opts;
}

/** Run and abort loudly if the outcome is wrong. */
inline RunStats
mustRun(const Outcome &outcome, const std::string &what)
{
    if (!outcome.ok) {
        std::cerr << "BENCH FAILURE (" << what
                  << "): " << outcome.error << std::endl;
        std::exit(1);
    }
    return outcome.stats;
}

inline std::string
fmt(double v, int prec = 2)
{
    return formatDouble(v, prec);
}

} // namespace smtsim::bench

#endif // SMTSIM_BENCH_BENCH_COMMON_HH
