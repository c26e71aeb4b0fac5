/**
 * @file
 * Host context stamped into every run: CPU count, compiler and build
 * type — the last two read from the build tree the benchmark was
 * built in, never a constant — and peak resident memory.
 */

#ifndef PERFBENCH_HOSTINFO_HH
#define PERFBENCH_HOSTINFO_HH

#include <string>

#include <sys/types.h>

namespace perfbench
{

struct BuildInfo
{
    std::string build_type;         ///< CMAKE_BUILD_TYPE
    std::string compiler;           ///< CMAKE_CXX_COMPILER path
    std::string compiler_id;        ///< e.g. GNU
    std::string compiler_version;   ///< e.g. 12.2.0
};

/**
 * Read @p build_dir/CMakeCache.txt (build type, compiler path) and
 * the compiler description CMake wrote under CMakeFiles/. Missing
 * entries stay empty.
 */
BuildInfo readBuildInfo(const std::string &build_dir);

/** Online CPUs. */
int cpuCount();

/** Peak resident set (VmHWM) of @p pid in MiB; 0 if unreadable. */
double peakRssMb(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_HOSTINFO_HH
