/**
 * @file
 * serve-mixed: a live smtsim-serve daemon (2 workers, fresh cache
 * directory and socket per run) driven by 2 client connections in
 * a closed loop. Each round is a list of steps; in a step both
 * clients send one submission at the same moment and wait for its
 * answer. The mix: mostly warm-cache hits, cold specs that simulate
 * and store, a duplicate pair sent simultaneously (single-flight),
 * and an error-lint program that admission must reject.
 *
 * Serve, the lab cache and the admission analysis dominate; the core
 * simulates only small programs.
 */

#include <barrier>
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "hostinfo.hh"
#include "lab/executor.hh"
#include "machine/run_stats_json.hh"
#include "serve/client.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using smtsim::Json;
using smtsim::ReadStatus;
using smtsim::RunStats;
namespace serve = smtsim::serve;

namespace
{

/** Longest silence from the daemon before an op counts as lost. */
constexpr int kEventTimeoutMs = 60'000;
/** Poll granularity of event reads (interrupt checks). */
constexpr int kPollMs = 200;

bool
alive(pid_t pid)
{
    return ::kill(pid, 0) == 0 || errno == EPERM;
}

/** Remove run directories ("<pid>-<k>") left by killed runs. */
void
removeStaleRuns(const fs::path &root)
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root, ec)) {
        const std::string name = entry.path().filename().string();
        char *end = nullptr;
        const long pid = std::strtol(name.c_str(), &end, 10);
        if (end && *end == '-' && pid > 0 &&
            !alive(static_cast<pid_t>(pid)))
            fs::remove_all(entry.path(), ec);
    }
}

/**
 * One smtsim-serve process in its own process group. The daemon
 * dies with the benchmark (PR_SET_PDEATHSIG) and is reaped on every
 * exit path: a shutdown request first, then SIGTERM, then SIGKILL
 * to the whole group (the daemon and its workers).
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &cache_dir)
        : socket_(socket)
    {
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::setpgid(0, 0);
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            // Keep the benchmark's stdout for its result line.
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            ::execl(binary.c_str(), binary.c_str(), "--socket",
                    socket.c_str(), "--workers", "2", "--cache-dir",
                    cache_dir.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::setpgid(pid_, pid_);
        for (int i = 0; i < 10'000; ++i) {
            std::string error;
            if (smtsim::connectUnix(socket_, &error).valid())
                return;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("smtsim-serve exited at start");
            }
            if (interrupted()) {
                stop();
                throw Interrupted();
            }
            ::usleep(1000);
        }
        stop();
        throw std::runtime_error("smtsim-serve did not start listening");
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        serve::Client c;
        std::string error;
        if (c.connect(socket_, &error))
            c.shutdownServer(&error, 2000);
        if (!reap(5000)) {
            ::kill(-pid_, SIGTERM);
            if (!reap(5000)) {
                ::kill(-pid_, SIGKILL);
                reap(-1);
            }
        }
        // Workers left behind by a daemon that died hard.
        ::kill(-pid_, SIGKILL);
        pid_ = -1;
    }

  private:
    bool
    reap(int timeout_ms)
    {
        for (int waited = 0; timeout_ms < 0 || waited < timeout_ms;
             waited += 10) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status,
                                      timeout_ms < 0 ? 0 : WNOHANG);
            if (r == pid_ || (r < 0 && errno == ECHILD))
                return true;
            ::usleep(10000);
        }
        return false;
    }

    std::string socket_;
    pid_t pid_ = -1;
};

/** A fresh socket + cache directory under the build tree. */
struct RunDir
{
    fs::path dir;

    RunDir(const fs::path &root, int index)
    {
        dir = root / (std::to_string(::getpid()) + "-" + std::to_string(index));
        fs::remove_all(dir);
        fs::create_directories(dir / "cache");
    }
    ~RunDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    /** Paths relative to the working directory: a unix socket path
     *  must stay short. */
    std::string socket() const
    {
        return fs::proximate(dir / "sock").string();
    }
    std::string cache() const { return (dir / "cache").string(); }
};

/** What one submission produced, as the client saw it. */
struct Reply
{
    std::string status;         ///< done/rejected/overloaded/lost
    std::string error;
    std::string source;         ///< of the single result
    lab::JobResult result;
    std::size_t results = 0;
    double latency_s = 0.0;     ///< send -> terminal event
    double admit_s = -1.0;      ///< send -> accepted (-1: none)
    double result_s = -1.0;     ///< accepted -> done
};

/** Read the next event, polling so an interrupt is noticed. */
bool
nextEvent(serve::Client &c, serve::Event *ev)
{
    for (int waited = 0; waited < kEventTimeoutMs; waited += kPollMs) {
        const ReadStatus st = c.readEvent(ev, kPollMs);
        if (st == ReadStatus::Ok)
            return true;
        if (st != ReadStatus::Timeout)
            return false;
        checkInterrupted();
    }
    return false;
}

/** Submit one spec and wait for its terminal event. */
Reply
submit(serve::Client &c, const std::string &id,
       const lab::ExperimentSpec &spec, Tracer &tracer, std::int64_t op)
{
    Reply r;
    Tracer::Span whole(tracer, "serve.submit", op);
    const auto t0 = Clock::now();
    Clock::time_point accepted{};
    bool terminal = false;
    auto handle = [&](serve::Event &ev) {
        if (!ev.id.empty() && ev.id != id)
            return;
        if (ev.type == "accepted") {
            accepted = Clock::now();
            r.admit_s = secondsBetween(t0, accepted);
        } else if (ev.type == "result") {
            ++r.results;
            r.source = ev.source;
            r.result = std::move(ev.result);
        } else if (ev.type == "done" || ev.type == "rejected" ||
                   ev.type == "overloaded" || ev.type == "error") {
            r.status = ev.type;
            r.error = ev.error;
            terminal = true;
        }
    };
    {
        Tracer::Span s(tracer, "serve.admit", op);
        if (!c.sendRaw(serve::submitLine(id, spec))) {
            r.status = "lost";
            return r;
        }
        serve::Event ev;
        while (!terminal && r.admit_s < 0) {
            if (!nextEvent(c, &ev)) {
                r.status = "lost";
                return r;
            }
            handle(ev);
        }
    }
    if (!terminal) {
        Tracer::Span s(tracer, "serve.result", op);
        serve::Event ev;
        while (!terminal) {
            if (!nextEvent(c, &ev)) {
                r.status = "lost";
                return r;
            }
            handle(ev);
        }
    }
    const auto t1 = Clock::now();
    r.latency_s = secondsBetween(t0, t1);
    if (r.admit_s >= 0 && r.status == "done")
        r.result_s = secondsBetween(accepted, t1);
    return r;
}

/** Where a submission's single result came from. */
enum class Source : std::uint8_t { None, Cache, Sim, Dedup };

Source
sourceOf(const Reply &r)
{
    if (r.results != 1)
        return Source::None;
    if (r.source == "cache")
        return Source::Cache;
    if (r.source == "sim")
        return Source::Sim;
    return r.source == "dedup" ? Source::Dedup : Source::None;
}

/** One submission of the timed loop, reduced to what the metrics
 *  need (tens of thousands are kept). A client's record k is step
 *  k % steps of round k / steps. */
struct Record
{
    double latency_s = 0.0;     ///< send -> terminal event
    double admit_s = -1.0;      ///< send -> accepted (-1: none)
    double result_s = -1.0;     ///< accepted -> done
    double sim_s = 0.0;         ///< worker's job seconds, when simulated
    Source source = Source::None;
};

/** A cold or duplicate answer, kept for the checks after the loop. */
struct ColdAnswer
{
    int round = 0;
    std::size_t step = 0;
    bool simulated = false;     ///< this submission ran the job
    RunStats stats;
};

/** What one client saw over the timed loop. */
struct ClientLog
{
    std::vector<Record> records;
    std::vector<double> connect_s;  ///< one per round
    std::vector<ColdAnswer> cold;
    /** Round 0's (cycles, instructions) of each step. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> first_counts;
    /** Instructions simulated for this client in round 0, by step. */
    std::vector<std::uint64_t> step_insns;
    std::uint64_t sim_cycles = 0;
    std::size_t matched = 0;
    std::vector<std::string> mismatches;    ///< unexpected outcomes
    std::vector<std::string> failures;      ///< failed checks
};

bool
expected(const ServeOp &op, const Reply &r,
         const std::map<std::string, RunStats> &hot)
{
    switch (op.kind) {
      case ServeKind::Hit:
        return r.status == "done" && r.results == 1 &&
               r.source == "cache" && r.result.ok &&
               smtsim::statsEqual(r.result.stats, hot.at(op.label));
      case ServeKind::Cold:
        return r.status == "done" && r.results == 1 &&
               r.source == "sim" && r.result.ok;
      case ServeKind::Dup:
        return r.status == "done" && r.results == 1 && r.result.ok &&
               (r.source == "sim" || r.source == "dedup" ||
                r.source == "cache");
      case ServeKind::Lint:
        return r.status == "rejected" &&
               r.error.find("lint rejected") != std::string::npos;
    }
    return false;
}

std::uint64_t
counter(const Json &stats, const char *name)
{
    const Json *v = stats.find(name);
    return v ? v->asU64() : 0;
}

Json
daemonStats(const std::string &socket)
{
    serve::Client c;
    std::string error;
    Json stats;
    if (!c.connect(socket, &error) || !c.stats(&stats, &error, 10'000))
        throw std::runtime_error("daemon stats: " + error);
    return stats;
}

/**
 * Set-up: start a daemon on a fresh directory and store every hot
 * spec through it. The fill is pipelined (every submission is sent
 * before the first answer is read), so it is bound by the workers,
 * not by round trips. @p hot receives each hot spec's stats.
 */
std::unique_ptr<Daemon>
startAndFill(const Options &o, const RunDir &dir, const ServePlan &plan,
             std::map<std::string, RunStats> &hot, Result &res)
{
    auto daemon = std::make_unique<Daemon>(o.build_dir + "/smtsim-serve",
                                           dir.socket(), dir.cache());
    serve::Client c;
    std::string error;
    if (!c.connect(dir.socket(), &error))
        throw std::runtime_error("connect: " + error);
    for (const ServeOp &op : plan.hot)
        if (!c.sendRaw(serve::submitLine(op.label, op.spec)))
            throw std::runtime_error("warm-cache fill: send failed");
    std::size_t pending = plan.hot.size();
    while (pending > 0) {
        serve::Event ev;
        if (!nextEvent(c, &ev))
            throw std::runtime_error("warm-cache fill: daemon went away");
        if (ev.type == "result") {
            if (!ev.result.ok)
                res.fail("warm-cache fill " + ev.id + ": " + ev.result.error);
            hot[ev.id] = ev.result.stats;
        } else if (ev.type == "done") {
            --pending;
        } else if (ev.type != "accepted") {
            res.fail("warm-cache fill " + ev.id + ": " + ev.type + " " +
                     ev.error);
            --pending;
        }
    }
    if (hot.size() != plan.hot.size())
        res.fail("warm-cache fill stored " + std::to_string(hot.size()) +
                 " of " + std::to_string(plan.hot.size()) + " specs");
    return daemon;
}

} // namespace

Result
runServeMixed(const Options &o, Tracer &tracer)
{
    Result res;
    EndToEnd e;
    const fs::path root = fs::path(o.build_dir) / "serve-runs";
    fs::create_directories(root);
    removeStaleRuns(root);

    // Set-up: expand the seed, start a daemon on a fresh directory,
    // fill the warm cache. The first repetition's daemon serves; the
    // later ones, between rounds, fill a daemon of their own, which
    // must store the same results, and stop it.
    std::map<std::string, RunStats> hot, again;
    std::unique_ptr<RunDir> dir, extra_dir;
    std::unique_ptr<Daemon> daemon, extra;
    SetUp setUp(
        e, res, [&] { return makeServePlan(o.seed, o.seconds); },
        [&](const ServePlan &p, int k) {
            for (std::size_t i = 0; i < p.round.size(); ++i) {
                const ServeStep s = serveStep(p, 0, i);
                for (const ServeOp *op : {&s.a, &s.b})
                    if (op->spec.expand().size() != 1)
                        res.fail("op " + op->label + " is not one job");
            }
            if (k == 0) {
                dir = std::make_unique<RunDir>(root, k);
                daemon = startAndFill(o, *dir, p, hot, res);
                return;
            }
            extra_dir = std::make_unique<RunDir>(root, k);
            again.clear();
            extra = startAndFill(o, *extra_dir, p, again, res);
        },
        [&](int k) {
            if (k == 0)
                return;
            extra.reset();
            extra_dir.reset();
            for (const auto &[label, stats] : hot)
                if (!again.count(label) ||
                    !smtsim::statsEqual(again.at(label), stats))
                    res.fail("warm-cache fill " + std::to_string(k) +
                             " stored a different " + label);
        });
    const ServePlan plan = setUp();
    const std::string socket = dir->socket();
    const Json before = daemonStats(socket);

    // Timed loop: this thread is client 0, a helper thread client 1.
    // A step takes as long as the slower of its two submissions; the
    // barrier that starts it is the harness's, not the service's.
    const int rounds = plan.rounds;
    const std::size_t steps = plan.round.size();
    ClientLog logs[2];
    std::vector<double> round_s(rounds, 0.0);
    std::barrier sync(2);
    std::exception_ptr failure[2];
    auto client = [&](int who) {
        ClientLog &log = logs[who];
        log.records.reserve(static_cast<std::size_t>(rounds) * steps);
        log.first_counts.resize(steps);
        log.step_insns.assign(steps, 0);
        try {
            for (int r = 0; r < rounds; ++r) {
                const auto t0 = Clock::now();
                if (who == 0)
                    tracer.setEnabled(tracedRound(o, r));
                sync.arrive_and_wait();
                serve::Client c;
                std::string error;
                const auto tc = Clock::now();
                {
                    Tracer::Span s(tracer, "serve.connect", -1);
                    if (!c.connect(socket, &error))
                        throw std::runtime_error("connect: " + error);
                }
                log.connect_s.push_back(secondsBetween(tc, Clock::now()));
                for (std::size_t i = 0; i < steps; ++i) {
                    const ServeStep step = serveStep(plan, r, i);
                    const ServeOp &op = who == 0 ? step.a : step.b;
                    const std::int64_t id =
                        (static_cast<std::int64_t>(r * steps + i)) * 2 + who;
                    checkInterrupted();
                    sync.arrive_and_wait();
                    Reply rep = submit(c, "s" + std::to_string(id),
                                       op.spec, tracer, id);
                    Record rec;
                    rec.latency_s = rep.latency_s;
                    rec.admit_s = rep.admit_s;
                    rec.result_s = rep.result_s;
                    rec.source = sourceOf(rep);
                    if (expected(op, rep, hot))
                        ++log.matched;
                    else
                        log.mismatches.push_back(
                            std::string(serveKindName(op.kind)) + " " +
                            op.label + " -> " + rep.status + "/" +
                            rep.source + " " + rep.error +
                            rep.result.error);
                    const RunStats &stats = rep.result.stats;
                    if (rep.results == 1) {
                        log.sim_cycles += stats.cycles;
                        // Every round repeats the same work step for
                        // step.
                        const std::pair counts{stats.cycles,
                                               stats.instructions};
                        if (r == 0)
                            log.first_counts[i] = counts;
                        else if (log.first_counts[i] != counts)
                            log.failures.push_back(
                                std::string(serveKindName(op.kind)) +
                                " op of step " + std::to_string(i) +
                                (tracedRound(o, r) ? " (traced)" : "") +
                                " simulated different counts than round 0");
                    }
                    if (op.kind == ServeKind::Cold ||
                        op.kind == ServeKind::Dup) {
                        const bool simulated = rec.source == Source::Sim;
                        if (simulated) {
                            rec.sim_s = rep.result.wall_seconds;
                            if (r == 0)
                                log.step_insns[i] += stats.instructions;
                        }
                        log.cold.push_back({r, i, simulated, stats});
                    }
                    log.records.push_back(rec);
                }
                sync.arrive_and_wait();
                if (who == 0) {
                    round_s[r] = secondsBetween(t0, Clock::now());
                    tracer.setEnabled(false);
                    setUp.afterRound(r, rounds);
                }
            }
        } catch (...) {
            failure[who] = std::current_exception();
            // Release the partner from every barrier it may reach.
            sync.arrive_and_drop();
        }
    };
    std::thread helper(client, 1);
    client(0);
    helper.join();
    tracer.setEnabled(false);
    for (const std::exception_ptr &f : failure)
        if (f)
            std::rethrow_exception(f);
    // Before the checks and the paper-table pass below, which
    // simulate in this process.
    const double own_rss = peakRssMb(::getpid());

    const Json after = daemonStats(socket);
    const double daemon_rss = peakRssMb(daemon->pid());
    daemon.reset();

    // Outcomes, end-to-end numbers and the exactness checks.
    std::vector<double> connect_ms, admit_ms, result_ms;
    std::map<Source, std::vector<double>> by_source;
    e.step_insns.assign(steps, 0);
    for (const ClientLog &log : logs) {
        e.attempted += log.records.size();
        e.matched += log.matched;
        e.sim_cycles += log.sim_cycles;
        for (std::size_t i = 0; i < steps; ++i)
            e.step_insns[i] += log.step_insns[i];
        for (const std::string &m : log.mismatches)
            res.problems.push_back("unexpected outcome: " + m);
        for (const std::string &f : log.failures)
            res.fail(f);
    }
    for (int r = 0; r < rounds; ++r) {
        const bool traced = tracedRound(o, r);
        std::vector<double> step_s(steps, 0.0), sim_s(steps, 0.0), lat;
        for (int who = 0; who < 2; ++who) {
            if (traced)
                connect_ms.push_back(logs[who].connect_s[r] * 1e3);
            for (std::size_t i = 0; i < steps; ++i) {
                const Record &rec = logs[who].records[r * steps + i];
                step_s[i] = std::max(step_s[i], rec.latency_s);
                sim_s[i] += rec.sim_s;
                if (!traced) {
                    lat.push_back(rec.latency_s);
                    continue;
                }
                if (rec.admit_s >= 0)
                    admit_ms.push_back(rec.admit_s * 1e3);
                if (rec.result_s >= 0)
                    result_ms.push_back(rec.result_s * 1e3);
                if (rec.source != Source::None)
                    by_source[rec.source].push_back(rec.latency_s * 1e3);
            }
        }
        if (traced) {
            e.traced_step_s.push_back(step_s);
        } else {
            e.round_s.push_back(round_s[r]);
            e.step_s.push_back(step_s);
            e.step_sim_s.push_back(sim_s);
            e.op_s.push_back(lat);
        }
    }

    // Cold and duplicate answers by label: duplicates must agree,
    // each spec must run once, and every answer must equal a local
    // lab::simulateJob.
    struct Cold
    {
        ServeOp op;
        const RunStats *stats = nullptr;
        int simulated = 0;
    };
    std::map<std::string, Cold> cold;
    for (int who = 0; who < 2; ++who) {
        for (const ColdAnswer &a : logs[who].cold) {
            const ServeStep step = serveStep(plan, a.round, a.step);
            const ServeOp &op = who == 0 ? step.a : step.b;
            Cold &slot = cold[op.label];
            if (!slot.stats) {
                slot.op = op;
                slot.stats = &a.stats;
            } else if (!smtsim::statsEqual(*slot.stats, a.stats)) {
                res.fail(op.label + ": duplicate answers differ");
            }
            slot.simulated += a.simulated ? 1 : 0;
        }
    }
    for (const auto &[label, c] : cold) {
        checkInterrupted();
        if (c.simulated > 1)
            res.fail(label + " was simulated " +
                     std::to_string(c.simulated) + " times");
        const lab::JobResult local =
            lab::simulateJob(c.op.spec.expand().front());
        if (!local.ok || !smtsim::statsEqual(local.stats, *c.stats))
            res.fail(label + ": served result differs from lab::simulateJob");
    }

    auto delta = [&](const char *name) {
        return static_cast<double>(counter(after, name) -
                                   counter(before, name));
    };
    const double exec_waste =
        ratio(delta("executed"), static_cast<double>(cold.size()));
    if (exec_waste != 1.0)
        res.fail("executed " + number(delta("executed")) + " jobs for " +
                 std::to_string(cold.size()) + " distinct cold specs");

    e.ops_per_round = steps * 2;
    e.paper_err = paperErrorPass(res);
    e.peak_rss_mb = own_rss + daemon_rss;
    res.context["peak_rss_mb_daemon"] = number(daemon_rss);
    res.context["peak_rss_mb_benchmark"] = number(own_rss);
    fillEndToEnd(e, res);
    res.context["cold_specs"] = std::to_string(cold.size());

    zeroPerLayer(res);
    auto &m = res.metrics;
    m["serve.cache_hit_ratio"] = ratio(
        delta("cache_hits"), delta("cache_hits") + delta("cache_misses"));
    m["serve.coalesced"] = delta("coalesced");
    m["serve.exec_waste"] = exec_waste;
    m["serve.retries"] = delta("retries");
    m["serve.overloaded"] = delta("overloaded");
    m["analysis.lint_rejected"] = delta("lint_rejected");
    // Every submission is one job, hence one admission lint check.
    m["analysis.lint_cache_hit_ratio"] =
        ratio(delta("lint_cache_hits"), static_cast<double>(e.attempted));
    if (o.trace) {
        m["serve.connect_ms"] = median(connect_ms);
        m["serve.admit_ms"] = median(admit_ms);
        m["serve.result_ms"] = median(result_ms);
        m["serve.hit_p50_ms"] = median(by_source[Source::Cache]);
        m["serve.miss_p50_ms"] = median(by_source[Source::Sim]);
        m["serve.dedup_p50_ms"] = median(by_source[Source::Dedup]);
    }
    return res;
}

} // namespace perfbench
