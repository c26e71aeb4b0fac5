/**
 * @file
 * perfbench: run one workload of the smtsim benchmark and print its
 * metrics (see ../README.md).
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * The last line of standard output is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * is {"context": {...}} (host stamp, seed, op counts, tail
 * percentile, tracing overhead). With --trace 1 the spans are also
 * written as a Chrome trace under the build tree's traces/.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "hostinfo.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

volatile std::sig_atomic_t g_interrupted = 0;

void
onSignal(int)
{
    g_interrupted = 1;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-grid|manycore-remote|serve-mixed --seed N "
                 "--seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

long long
parseNumber(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const long long v = std::stoll(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    usage(flag + " needs an integer, got '" + text + "'");
}

} // namespace

namespace perfbench
{

bool
interrupted()
{
    return g_interrupted != 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    Options o;
    o.build_dir = PERFBENCH_BUILD_DIR;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(parseNumber(arg, value));
        } else if (arg == "--seconds") {
            o.seconds = static_cast<int>(parseNumber(arg, value));
        } else if (arg == "--trace") {
            const long long t = parseNumber(arg, value);
            if (t != 0 && t != 1)
                usage("--trace is 0 or 1");
            o.trace = t == 1;
            have_trace = true;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (o.seconds < 1 || o.seconds > 120)
        usage("--seconds must be 1..120");
    if (o.workload != "paper-grid" && o.workload != "manycore-remote" &&
        o.workload != "serve-mixed")
        usage("unknown workload '" + o.workload + "'");
    if (!have_trace)
        usage("--trace is required");

    const BuildInfo build = readBuildInfo(o.build_dir);
    if (build.build_type != "Release") {
        std::fprintf(stderr,
                     "perfbench: %s is a '%s' build; the benchmark "
                     "measures Release builds only\n",
                     o.build_dir.c_str(), build.build_type.c_str());
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    Tracer tracer(false);
    Result res;
    try {
        if (o.workload == "paper-grid")
            res = runPaperGrid(o, tracer);
        else if (o.workload == "manycore-remote")
            res = runManycoreRemote(o, tracer);
        else
            res = runServeMixed(o, tracer);
    } catch (const Interrupted &) {
        std::fprintf(stderr, "perfbench: interrupted\n");
        return 130;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &p : res.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

    if (o.trace) {
        namespace fs = std::filesystem;
        const fs::path dir = fs::path(o.build_dir) / "traces";
        std::error_code ec;
        fs::create_directories(dir, ec);
        const fs::path file =
            dir / (o.workload + "-seed" + std::to_string(o.seed) + ".json");
        if (tracer.writeChromeTrace(file.string()))
            res.context["trace_file"] = jsonString(file.string());
        res.context["spans"] = std::to_string(tracer.spans().size());
    }

    std::string ctx = "{\"workload\":" + jsonString(o.workload) +
                      ",\"seed\":" + std::to_string(o.seed) +
                      ",\"seconds\":" + std::to_string(o.seconds) +
                      ",\"trace\":" + (o.trace ? "true" : "false") +
                      ",\"cpus\":" + std::to_string(cpuCount()) +
                      ",\"build_type\":" + jsonString(build.build_type) +
                      ",\"compiler\":" + jsonString(build.compiler) +
                      ",\"compiler_id\":" + jsonString(build.compiler_id) +
                      ",\"compiler_version\":" +
                      jsonString(build.compiler_version);
    for (const auto &[key, value] : res.context)
        ctx += "," + jsonString(key) + ":" + value;
    ctx += "}";
    std::cout << "{\"context\":" << ctx << "}\n";
    std::cout << resultLine(res, o.trace) << std::endl;
    return 0;
}
