#include "sockio.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace smtsim
{

namespace
{

/** Picks the right interpretation of strerror_r's result for both
 *  the XSI (int return) and GNU (char* return) signatures; exactly
 *  one overload is instantiated per platform. */
[[maybe_unused]] const char *
strerrorResult(int rc, const char *buf)
{
    return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char *
strerrorResult(const char *msg, const char *)
{
    return msg;
}

/** Thread-safe errno formatting: sockio errors surface from the
 *  serve daemon's accept/reader/dispatcher threads, so the shared
 *  static buffer of plain strerror() is off limits. */
std::string
errnoString(const char *what)
{
    char buf[128] = {};
    return std::string(what) + ": " +
           strerrorResult(strerror_r(errno, buf, sizeof(buf)), buf);
}

/** Fill a sockaddr_un; false when the path does not fit. */
bool
makeAddr(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return false;
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

void
Fd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

Fd
listenUnix(const std::string &path, std::string *error, int backlog)
{
    sockaddr_un addr;
    if (!makeAddr(path, &addr)) {
        if (error)
            *error = "socket path \"" + path +
                     "\" is empty or too long for AF_UNIX";
        return Fd();
    }
    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) {
        if (error)
            *error = errnoString("socket");
        return Fd();
    }
    // A previous daemon may have left its socket file behind, but
    // an unconditional unlink would silently hijack a *live*
    // daemon's socket (stranding its clients on the orphaned
    // inode). Probe with a connect: success means the path has a
    // living owner — refuse; ECONNREFUSED means nobody is
    // listening and the stale file is safe to remove.
    {
        Fd probe(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
        if (probe.valid()) {
            int rc;
            do {
                rc = ::connect(probe.get(),
                               reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr));
            } while (rc != 0 && errno == EINTR);
            if (rc == 0) {
                if (error)
                    *error = "socket " + path +
                             " is in use by a running process "
                             "(refusing to hijack it)";
                return Fd();
            }
            if (errno == ECONNREFUSED)
                ::unlink(path.c_str());
            // ENOENT: nothing to clean up. Anything else (a
            // non-socket file, a permission problem): leave the
            // path alone and let bind report the conflict.
        }
    }
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (error)
            *error = errnoString(("bind " + path).c_str());
        return Fd();
    }
    if (::listen(fd.get(), backlog) != 0) {
        if (error)
            *error = errnoString("listen");
        return Fd();
    }
    return fd;
}

Fd
connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!makeAddr(path, &addr)) {
        if (error)
            *error = "socket path \"" + path +
                     "\" is empty or too long for AF_UNIX";
        return Fd();
    }
    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) {
        if (error)
            *error = errnoString("socket");
        return Fd();
    }
    int rc;
    do {
        rc = ::connect(fd.get(),
                       reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        if (error)
            *error = errnoString(("connect " + path).c_str());
        return Fd();
    }
    return fd;
}

Fd
acceptConn(const Fd &listener)
{
    while (true) {
        const int fd = ::accept4(listener.get(), nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd >= 0)
            return Fd(fd);
        if (errno != EINTR)
            return Fd();
    }
}

bool
writeAll(const Fd &fd, std::string_view data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        // send(MSG_NOSIGNAL) suppresses SIGPIPE on sockets; pipes
        // (worker stdin/stdout) reject send with ENOTSOCK, so fall
        // back to write — pipe users must ignore SIGPIPE.
        ssize_t n = ::send(fd.get(), p, left, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd.get(), p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

ReadStatus
LineReader::readLine(std::string *line, int timeout_ms)
{
    while (true) {
        // Scan only bytes not inspected by a previous call.
        const std::size_t nl = buf_.find('\n', scanned_);
        if (nl != std::string::npos) {
            line->assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            scanned_ = 0;
            return ReadStatus::Ok;
        }
        scanned_ = buf_.size();
        if (buf_.size() > kMaxLineBytes)
            return ReadStatus::TooLong;

        pollfd pfd{fd_->get(), POLLIN, 0};
        int rc;
        do {
            rc = ::poll(&pfd, 1, timeout_ms);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0)
            return ReadStatus::Error;
        if (rc == 0)
            return ReadStatus::Timeout;

        char chunk[4096];
        ssize_t n;
        do {
            n = ::recv(fd_->get(), chunk, sizeof(chunk), 0);
            if (n < 0 && errno == ENOTSOCK)
                n = ::read(fd_->get(), chunk, sizeof(chunk));
        } while (n < 0 && errno == EINTR);
        if (n < 0)
            return ReadStatus::Error;
        if (n == 0)
            return ReadStatus::Eof;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

long
raiseFdLimit(long want)
{
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0)
        return -1;
    const rlim_t target =
        lim.rlim_max == RLIM_INFINITY
            ? static_cast<rlim_t>(want)
            : std::min<rlim_t>(static_cast<rlim_t>(want),
                               lim.rlim_max);
    if (lim.rlim_cur < target) {
        rlimit raised = lim;
        raised.rlim_cur = target;
        if (::setrlimit(RLIMIT_NOFILE, &raised) == 0)
            lim = raised;
    }
    return static_cast<long>(lim.rlim_cur);
}

} // namespace smtsim
