/**
 * @file
 * Unix-domain socket plumbing for the simulation service
 * (smtsim::serve) and its clients: RAII file descriptors, a
 * listener/connector pair, EINTR-safe full writes and a buffered
 * line reader with poll()-based timeouts.
 *
 * Everything here speaks bytes; framing above this layer is
 * newline-delimited JSON (serve/protocol.hh). On sockets SIGPIPE is
 * never raised (writes use MSG_NOSIGNAL) and a vanished peer
 * surfaces as an ordinary error return. writeAll/LineReader also
 * accept pipe fds (the worker-process transport), where
 * MSG_NOSIGNAL does not exist — pipe users must ignore SIGPIPE
 * themselves (WorkerPool does).
 */

#ifndef SMTSIM_BASE_SOCKIO_HH
#define SMTSIM_BASE_SOCKIO_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace smtsim
{

/** Move-only owner of one file descriptor (-1 = empty). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(Fd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd &
    operator=(Fd &&o) noexcept
    {
        if (this != &o) {
            reset();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    bool valid() const { return fd_ >= 0; }
    int get() const { return fd_; }
    int release() { return std::exchange(fd_, -1); }
    void reset();

  private:
    int fd_ = -1;
};

/**
 * Bind + listen on a unix stream socket at @p path. A stale socket
 * file (no live listener — probed with a connect) is unlinked
 * first; a path owned by a *running* process is refused rather
 * than hijacked. @return listening fd, or invalid with *error set.
 */
Fd listenUnix(const std::string &path, std::string *error,
              int backlog = 128);

/** Connect to a unix stream socket; invalid + *error on failure. */
Fd connectUnix(const std::string &path, std::string *error);

/** accept(2) on a listener; invalid on error/shutdown. */
Fd acceptConn(const Fd &listener);

/**
 * Write the whole buffer, retrying on EINTR/short writes, raising
 * no SIGPIPE. @return false on any write error (peer gone).
 */
bool writeAll(const Fd &fd, std::string_view data);

/**
 * Longest line LineReader accepts. Every protocol line (requests,
 * events, worker replies) is a few KB; a peer that sends more is
 * broken or hostile.
 */
constexpr std::size_t kMaxLineBytes = 1u << 20;

/** Result of one LineReader::readLine call. */
enum class ReadStatus
{
    Ok,         ///< a full line was delivered (newline stripped)
    Eof,        ///< orderly shutdown before a complete line
    Timeout,    ///< timeout_ms elapsed with no complete line
    Error,      ///< read error / peer reset
    TooLong     ///< the line exceeds kMaxLineBytes; stop reading
};

/**
 * Buffered reader that yields '\n'-terminated lines from a socket.
 * One reader per fd; not thread-safe (each connection has a single
 * reading thread).
 */
class LineReader
{
  public:
    /** @param fd borrowed; must outlive the reader. */
    explicit LineReader(const Fd &fd) : fd_(&fd) {}

    /**
     * Block until a full line arrives, EOF, error, or @p timeout_ms
     * elapses (-1 = wait forever). On Ok, *line holds the line
     * without its trailing newline. A line longer than
     * kMaxLineBytes yields TooLong; the stream cannot be resynced
     * after that, so the caller should close it.
     */
    ReadStatus readLine(std::string *line, int timeout_ms = -1);

  private:
    const Fd *fd_;
    std::string buf_;
    std::size_t scanned_ = 0;   ///< prefix of buf_ known newline-free
};

/**
 * Raise RLIMIT_NOFILE's soft limit toward the hard limit (capped at
 * @p want). Best-effort: the daemon and the load generator both
 * juggle thousands of sockets and the default soft limit of 1024 is
 * too small. @return the resulting soft limit.
 */
long raiseFdLimit(long want = 16384);

} // namespace smtsim

#endif // SMTSIM_BASE_SOCKIO_HH
