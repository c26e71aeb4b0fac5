#include "worker.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "lab/executor.hh"
#include "lab/spec_json.hh"
#include "serve/protocol.hh"

namespace smtsim::serve
{

// -- WorkerProcess ------------------------------------------------

WorkerProcess::WorkerProcess(const std::vector<std::string> &argv)
{
    spawn(argv);
}

WorkerProcess::~WorkerProcess()
{
    kill();
}

bool
WorkerProcess::spawn(const std::vector<std::string> &argv)
{
    if (argv.empty())
        return false;

    int to[2], from[2];
    if (::pipe(to) != 0)
        return false;
    if (::pipe(from) != 0) {
        ::close(to[0]);
        ::close(to[1]);
        return false;
    }

    const int pid = ::fork();
    if (pid < 0) {
        ::close(to[0]);
        ::close(to[1]);
        ::close(from[0]);
        ::close(from[1]);
        return false;
    }

    if (pid == 0) {
        // Child: jobs arrive on stdin, results leave on stdout;
        // stderr stays shared so worker diagnostics reach the
        // daemon's log.
        ::dup2(to[0], STDIN_FILENO);
        ::dup2(from[1], STDOUT_FILENO);
        ::close(to[0]);
        ::close(to[1]);
        ::close(from[0]);
        ::close(from[1]);

        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            cargv.push_back(const_cast<char *>(arg.c_str()));
        cargv.push_back(nullptr);
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }

    ::close(to[0]);
    ::close(from[1]);
    pid_ = pid;
    to_child_ = Fd(to[1]);
    from_child_ = Fd(from[0]);
    reader_ = std::make_unique<LineReader>(from_child_);
    return true;
}

void
WorkerProcess::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
    pid_ = -1;
    to_child_.reset();
    from_child_.reset();
    reader_.reset();
}

RunOutcome
WorkerProcess::run(const lab::Job &job, double timeout_seconds,
                   lab::JobResult *out, std::string *why)
{
    if (pid_ <= 0) {
        *why = "worker process is not running";
        return RunOutcome::Crashed;
    }
    if (!writeAll(to_child_, workerJobLine(job))) {
        *why = "could not write job to worker (worker gone)";
        return RunOutcome::Crashed;
    }

    const int timeout_ms =
        timeout_seconds > 0
            ? static_cast<int>(timeout_seconds * 1000.0)
            : -1;
    std::string line;
    switch (reader_->readLine(&line, timeout_ms)) {
      case ReadStatus::Ok:
        break;
      case ReadStatus::Timeout:
        *why = "job exceeded the " +
               std::to_string(timeout_seconds) +
               "s worker budget";
        return RunOutcome::Timeout;
      case ReadStatus::Eof:
        *why = "worker exited mid-job";
        return RunOutcome::Crashed;
      case ReadStatus::Error:
        *why = "read error from worker";
        return RunOutcome::Crashed;
      case ReadStatus::TooLong:
        *why = "worker reply exceeds the line limit";
        return RunOutcome::Crashed;
    }

    try {
        const Json j = Json::parse(line);
        if (j.at("v").asInt() != kProtocolVersion) {
            *why = "worker spoke an unsupported protocol version";
            return RunOutcome::Crashed;
        }
        // The worker recomputes the content address itself; a
        // mismatch means daemon and worker disagree on the job's
        // identity, and caching the result would poison the shared
        // cache under the wrong key.
        const std::string echoed = j.at("key").asString();
        const std::string expected = job.cacheKey();
        if (echoed != expected) {
            *why = "cache key mismatch (daemon " + expected +
                   ", worker " + echoed + ")";
            return RunOutcome::Crashed;
        }
        *out = lab::resultFromJson(j.at("result"));
    } catch (const JsonParseError &e) {
        *why = std::string("malformed worker reply: ") + e.what();
        return RunOutcome::Crashed;
    }
    return RunOutcome::Ok;
}

// -- WorkerPool ---------------------------------------------------

WorkerPool::WorkerPool(int num_workers, WorkerOptions opts)
    : opts_(std::move(opts)),
      num_workers_(num_workers > 0 ? num_workers : 1)
{
    // Worker pipes cannot use MSG_NOSIGNAL; a write to a crashed
    // worker must surface as an error return, not kill the daemon.
    ::signal(SIGPIPE, SIG_IGN);
    if (opts_.argv.empty())
        opts_.argv = {selfExecutablePath(), "--worker"};
    for (int i = 0; i < num_workers_; ++i)
        idle_.push_back(
            std::make_unique<WorkerProcess>(opts_.argv));
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

std::unique_ptr<WorkerProcess>
WorkerPool::checkout()
{
    std::unique_lock<std::mutex> lock(mutex_);
    available_.wait(lock,
                    [&] { return shutdown_ || !idle_.empty(); });
    if (shutdown_)
        return nullptr;
    std::unique_ptr<WorkerProcess> w = std::move(idle_.back());
    idle_.pop_back();
    if (w->pid() > 0)
        busy_pids_.push_back(w->pid());
    return w;
}

void
WorkerPool::checkin(std::unique_ptr<WorkerProcess> worker)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(busy_pids_, worker->pid());
    if (shutdown_) {
        worker->kill();
        return;
    }
    idle_.push_back(std::move(worker));
    available_.notify_one();
}

lab::JobResult
WorkerPool::execute(const lab::Job &job)
{
    const int attempts = opts_.max_retries + 1;
    double backoff = opts_.backoff_seconds;
    std::string last_why = "worker pool is shut down";

    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            retries_.fetch_add(1, std::memory_order_relaxed);
            if (backoff > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
                backoff *= 2;
            }
        }

        std::unique_ptr<WorkerProcess> w = checkout();
        if (!w)
            break;
        if (!w->alive()) {
            // Replace a worker that failed to spawn earlier.
            w = std::make_unique<WorkerProcess>(opts_.argv);
            restarts_.fetch_add(1, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (w->pid() > 0)
                    busy_pids_.push_back(w->pid());
            }
        }

        lab::JobResult result;
        std::string why;
        const RunOutcome outcome =
            w->run(job, opts_.job_timeout_seconds, &result, &why);
        if (outcome == RunOutcome::Ok) {
            executed_.fetch_add(1, std::memory_order_relaxed);
            checkin(std::move(w));
            return result;
        }

        // The worker is dead or in an unknown state: kill it and
        // return a fresh one to the pool so capacity is restored
        // no matter how this job ends. The pid leaves busy_pids_
        // BEFORE kill() reaps it — once reaped the pid can be
        // recycled, and a concurrent shutdown() iterating
        // busy_pids_ must never SIGKILL an unrelated process.
        bool replace;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::erase(busy_pids_, w->pid());
            replace = !shutdown_;
        }
        w->kill();
        if (replace) {
            restarts_.fetch_add(1, std::memory_order_relaxed);
            checkin(std::make_unique<WorkerProcess>(opts_.argv));
        }
        last_why = why;

        // A hang is a property of the config, not of the worker it
        // ran on — retrying would burn the whole attempt budget on
        // the same stall.
        if (outcome == RunOutcome::Timeout)
            break;
    }

    lab::JobResult fail;
    fail.id = job.id;
    fail.key = job.cacheKey();
    fail.ok = false;
    fail.error = "worker: " + last_why;
    return fail;
}

std::vector<int>
WorkerPool::pids() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> out = busy_pids_;
    for (const auto &w : idle_)
        if (w->pid() > 0)
            out.push_back(w->pid());
    return out;
}

WorkerPoolStats
WorkerPool::stats() const
{
    WorkerPoolStats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.restarts = restarts_.load(std::memory_order_relaxed);
    return s;
}

void
WorkerPool::shutdown()
{
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    for (auto &w : idle_)
        w->kill();
    idle_.clear();
    // Checked-out workers are owned by dispatcher threads blocked
    // in run(); SIGKILL closes their pipes so those reads return
    // EOF now instead of after the full job timeout. The owning
    // WorkerProcess reaps the zombie in its own kill().
    for (const int pid : busy_pids_)
        ::kill(pid, SIGKILL);
    available_.notify_all();
}

// -- worker mode --------------------------------------------------

int
workerMain()
{
    ::signal(SIGPIPE, SIG_IGN);
    const Fd in(STDIN_FILENO);
    const Fd out(STDOUT_FILENO);
    LineReader reader(in);

    std::string line;
    int rc = 0;
    while (true) {
        const ReadStatus st = reader.readLine(&line);
        if (st == ReadStatus::Eof)
            break;              // daemon closed our stdin: done
        if (st != ReadStatus::Ok) {
            rc = 1;
            break;
        }
        try {
            const Json j = Json::parse(line);
            if (j.at("v").asInt() != kProtocolVersion) {
                rc = 1;
                break;
            }
            const lab::Job job = lab::jobFromJson(j.at("job"));
            const lab::JobResult result = lab::simulateJob(job);
            if (!writeAll(out,
                          workerResultLine(job.cacheKey(),
                                           result))) {
                rc = 1;
                break;
            }
        } catch (const JsonParseError &) {
            rc = 1;             // daemon treats our death as crash
            break;
        }
    }
    // The Fd wrappers borrow stdio descriptors; the process is
    // exiting, so let them close.
    return rc;
}

std::string
selfExecutablePath()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return std::string(buf);
}

} // namespace smtsim::serve
