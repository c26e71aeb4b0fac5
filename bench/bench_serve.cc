/**
 * @file
 * Load test for smtsim-serve: drives an in-process daemon over a
 * real unix socket with thousands of client submissions and writes
 * BENCH_serve.json (scripts/bench_serve.sh wraps this). Refuses to
 * measure unless built Release.
 *
 * Three phases:
 *  - herd: N identical single-job specs from many concurrent client
 *    connections. The single-flight table must collapse them onto
 *    exactly ONE simulation (asserted via the daemon's execution
 *    counter); reported are throughput, p50/p99 submission latency
 *    and the dedup/cache split.
 *  - sweep: distinct specs (no dedup possible) saturating the
 *    worker pool — the honest jobs-per-second number.
 *  - crash: a sweep of slow jobs while worker processes are
 *    SIGKILLed under it; every job must still come back ok through
 *    retry + restart.
 *
 * Env knobs (CI uses smaller values than the defaults):
 *   SMTSIM_SERVE_HERD     herd submissions        (default 1200)
 *   SMTSIM_SERVE_CLIENTS  concurrent connections  (default 32)
 *   SMTSIM_SERVE_SWEEP    distinct sweep jobs     (default 96)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "base/sockio.hh"
#include "paired.hh"
#include "serve/serve.hh"

using namespace smtsim;
using namespace smtsim::serve;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::atol(v) : fallback;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 *
                        static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi =
        std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Json
latencyJson(const std::vector<double> &samples)
{
    Json j = Json::object();
    j.set("samples", Json(samples.size()));
    j.set("p50_ms", Json(percentile(samples, 50) * 1e3));
    j.set("p99_ms", Json(percentile(samples, 99) * 1e3));
    j.set("max_ms",
          Json(samples.empty()
                   ? 0.0
                   : *std::max_element(samples.begin(),
                                       samples.end()) *
                         1e3));
    return j;
}

struct Scratch
{
    fs::path dir;

    Scratch()
        : dir(fs::temp_directory_path() /
              ("smtsim-bench-serve-" + std::to_string(::getpid())))
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~Scratch()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    std::string str(const char *leaf) const
    {
        return (dir / leaf).string();
    }
};

/** Distinct single-job specs: max_cycles moves the cache key. */
lab::ExperimentSpec
distinctSpec(int i)
{
    lab::ExperimentSpec spec;
    spec.name = "sweep";
    spec.workloads = {lab::WorkloadSpec::matmul(8)};
    spec.slots = {2};
    spec.core_template.max_cycles = 10'000'000 + i;
    return spec;
}

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "bench_serve: FAILED: %s\n", what.c_str());
    std::exit(1);
}

/**
 * Run @p total submissions of per-client specs across @p nclients
 * connections; returns per-submission wall latencies.
 * @p spec_for maps a global submission index to its spec.
 */
std::vector<double>
drive(const std::string &socket_path, int nclients, int total,
      const std::function<lab::ExperimentSpec(int)> &spec_for,
      std::atomic<long> *failures)
{
    std::vector<std::vector<double>> lats(
        static_cast<std::size_t>(nclients));
    std::vector<std::thread> threads;
    std::atomic<int> next{0};

    for (int c = 0; c < nclients; ++c) {
        threads.emplace_back([&, c] {
            Client client;
            std::string err;
            if (!client.connect(socket_path, &err)) {
                failures->fetch_add(1);
                return;
            }
            for (int i = next.fetch_add(1); i < total;
                 i = next.fetch_add(1)) {
                const auto t0 = Clock::now();
                const SubmitOutcome out = client.submitAndWait(
                    "b" + std::to_string(i), spec_for(i), 120000);
                lats[static_cast<std::size_t>(c)].push_back(
                    seconds(t0, Clock::now()));
                if (!out.done() || out.failures != 0)
                    failures->fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::vector<double> all;
    for (const auto &v : lats)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

} // namespace

int
main(int argc, char **argv)
{
    // The pool re-executes this binary as its worker.
    if (argc == 2 && std::string(argv[1]) == "--worker")
        return workerMain();
    if (!bench::releaseBuild("bench_serve", SMTSIM_BUILD_TYPE))
        return 1;

    const int herd_n =
        static_cast<int>(envLong("SMTSIM_SERVE_HERD", 1200));
    const int clients =
        static_cast<int>(envLong("SMTSIM_SERVE_CLIENTS", 32));
    const int sweep_n =
        static_cast<int>(envLong("SMTSIM_SERVE_SWEEP", 96));
    const char *out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

    raiseFdLimit();
    Scratch scratch;
    Json report = Json::object();
    report.set("herd_submissions", Json(herd_n));
    report.set("clients", Json(clients));
    report.set("sweep_jobs", Json(sweep_n));

    // ---- phase 1: thundering herd -------------------------------
    {
        ServeOptions opts;
        opts.socket_path = scratch.str("herd.sock");
        opts.num_workers = 4;
        opts.cache_dir = scratch.str("herd-cache");
        Server server(std::move(opts));
        std::string err;
        if (!server.start(&err))
            die("herd server: " + err);

        // One identical, deliberately slow spec: most of the herd
        // arrives while the key is in flight.
        lab::ExperimentSpec spec;
        spec.name = "herd";
        spec.workloads = {lab::WorkloadSpec::rayTrace(64, 64)};
        spec.slots = {4};

        std::atomic<long> failures{0};
        const auto t0 = Clock::now();
        const std::vector<double> lat =
            drive(scratch.str("herd.sock"), clients, herd_n,
                  [&](int) { return spec; }, &failures);
        const double wall = seconds(t0, Clock::now());

        const ServerStats s = server.stats();
        server.stop();
        if (failures.load() != 0)
            die(std::to_string(failures.load()) +
                " herd submissions failed");
        // The acceptance criterion: the whole herd costs ONE
        // simulation.
        if (s.executed != 1)
            die("herd executed " + std::to_string(s.executed) +
                " times, expected exactly 1");

        Json phase = Json::object();
        phase.set("submissions", Json(herd_n));
        phase.set("executed", Json(s.executed));
        phase.set("coalesced", Json(s.coalesced));
        phase.set("cache_hits", Json(s.cache_hits));
        phase.set("dedup_rate",
                  Json(static_cast<double>(s.coalesced +
                                           s.cache_hits) /
                       static_cast<double>(herd_n)));
        phase.set("wall_seconds", Json(wall));
        phase.set("submissions_per_second",
                  Json(static_cast<double>(herd_n) / wall));
        phase.set("latency", latencyJson(lat));
        report.set("herd", phase);
        std::printf(
            "herd:  %d identical submissions -> %llu simulation, "
            "%.0f subs/s, p99 %.1f ms\n",
            herd_n,
            static_cast<unsigned long long>(s.executed),
            static_cast<double>(herd_n) / wall,
            percentile(lat, 99) * 1e3);
    }

    // ---- phase 2: distinct-spec throughput ----------------------
    {
        ServeOptions opts;
        opts.socket_path = scratch.str("sweep.sock");
        opts.cache_dir = scratch.str("sweep-cache");
        Server server(std::move(opts));
        std::string err;
        if (!server.start(&err))
            die("sweep server: " + err);

        std::atomic<long> failures{0};
        const auto t0 = Clock::now();
        const std::vector<double> lat =
            drive(scratch.str("sweep.sock"), clients, sweep_n,
                  distinctSpec, &failures);
        const double wall = seconds(t0, Clock::now());

        const ServerStats s = server.stats();
        server.stop();
        if (failures.load() != 0)
            die(std::to_string(failures.load()) +
                " sweep submissions failed");
        if (s.executed != static_cast<std::uint64_t>(sweep_n))
            die("sweep executed " + std::to_string(s.executed) +
                ", expected " + std::to_string(sweep_n));

        Json phase = Json::object();
        phase.set("jobs", Json(sweep_n));
        phase.set("wall_seconds", Json(wall));
        phase.set("jobs_per_second",
                  Json(static_cast<double>(sweep_n) / wall));
        phase.set("latency", latencyJson(lat));
        report.set("sweep", phase);
        std::printf("sweep: %d distinct jobs, %.0f jobs/s, "
                    "p99 %.1f ms\n",
                    sweep_n,
                    static_cast<double>(sweep_n) / wall,
                    percentile(lat, 99) * 1e3);
    }

    // ---- phase 3: worker crash injection ------------------------
    {
        ServeOptions opts;
        opts.socket_path = scratch.str("crash.sock");
        opts.num_workers = 2;
        opts.cache_dir = scratch.str("crash-cache");
        opts.max_retries = 4;
        Server server(std::move(opts));
        std::string err;
        if (!server.start(&err))
            die("crash server: " + err);

        // Slow jobs so the killer reliably lands mid-execution.
        lab::ExperimentSpec spec;
        spec.name = "crash";
        spec.workloads = {lab::WorkloadSpec::rayTrace(96, 96)};
        spec.slots = {1, 2, 4};

        std::atomic<bool> stop_killer{false};
        std::atomic<long> kills{0};
        std::thread killer([&] {
            // Inject a bounded burst of worker kills: enough that
            // several land mid-job, but finite so retries can
            // eventually outrun the violence (the retry budget is
            // per job, and an unbounded killer firing faster than
            // a job completes would legitimately exhaust it).
            for (int k = 0; k < 4 && !stop_killer.load(); ++k) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(300));
                const std::vector<int> pids = server.workerPids();
                if (!pids.empty() && !stop_killer.load()) {
                    ::kill(pids[0], SIGKILL);
                    kills.fetch_add(1);
                }
            }
        });

        Client client;
        if (!client.connect(scratch.str("crash.sock"), &err))
            die("crash client: " + err);
        const auto t0 = Clock::now();
        const SubmitOutcome out =
            client.submitAndWait("crash", spec, 120000);
        const double wall = seconds(t0, Clock::now());
        stop_killer.store(true);
        killer.join();

        const ServerStats s = server.stats();
        server.stop();
        if (!out.done())
            die("crash sweep ended " + out.status + ": " +
                out.error);
        if (out.failures != 0)
            die("crash sweep had " +
                std::to_string(out.failures) + " failed jobs");

        Json phase = Json::object();
        phase.set("jobs", Json(out.jobs));
        phase.set("workers_killed", Json(kills.load()));
        phase.set("retries", Json(s.retries));
        phase.set("worker_restarts", Json(s.worker_restarts));
        phase.set("wall_seconds", Json(wall));
        phase.set("all_ok", Json(true));
        report.set("crash", phase);
        std::printf("crash: %zu jobs ok through %ld worker kills "
                    "(%llu restarts, %llu retries)\n",
                    out.jobs, kills.load(),
                    static_cast<unsigned long long>(
                        s.worker_restarts),
                    static_cast<unsigned long long>(s.retries));
    }

    std::ofstream f(out_path);
    f << report.dump(2) << "\n";
    if (!f)
        die(std::string("cannot write ") + out_path);
    std::printf("wrote %s\n", out_path);
    return 0;
}
