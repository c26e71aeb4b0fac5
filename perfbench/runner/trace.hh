/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark wraps its own calls into each smtsim module in a
 * Span: name ("core.run", "serve.admit", ...), start, end, the span
 * that was open around it on the same thread (its parent) and the
 * id of the operation it belongs to. Nothing inside the simulator is
 * instrumented. Spans stay in memory and are written out once, as a
 * Chrome trace-event file, when the benchmark ends.
 *
 * A disabled Tracer records nothing: Span construction is one
 * branch, so the untraced run pays no tracing cost.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord
{
    const char *name = "";      ///< static string literal
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;   ///< -1: top level
    std::int64_t op = -1;       ///< operation id, -1: none
    int thread = 0;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    bool enabled() const { return enabled_; }
    /** Turn recording on or off (between rounds, never mid-span). */
    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span; records on destruction when the tracer is on. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name, std::int64_t op);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        SpanRecord rec_;
    };

    /** All finished spans (call once every thread is done). */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Durations in seconds of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum of durations of spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Write every span as a Chrome trace-event JSON file
     * (chrome://tracing, Perfetto). @return false on I/O failure.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::int64_t next_id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
