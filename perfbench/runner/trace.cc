#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench
{

namespace
{

/** Open spans of the current thread, innermost last (parents). */
thread_local std::vector<std::int64_t> t_open;

int
threadIndex()
{
    static std::mutex m;
    static std::vector<std::thread::id> seen;
    thread_local int index = -1;
    if (index < 0) {
        std::lock_guard<std::mutex> lock(m);
        index = static_cast<int>(seen.size());
        seen.push_back(std::this_thread::get_id());
    }
    return index;
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
{}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Span::Span(Tracer &tracer, const char *name, std::int64_t op)
    : tracer_(tracer.enabled_ ? &tracer : nullptr)
{
    if (!tracer_)
        return;
    rec_.name = name;
    rec_.op = op;
    rec_.thread = threadIndex();
    rec_.parent = t_open.empty() ? -1 : t_open.back();
    {
        std::lock_guard<std::mutex> lock(tracer_->mutex_);
        rec_.id = tracer_->next_id_++;
    }
    t_open.push_back(rec_.id);
    rec_.start_ns = tracer_->nowNs();
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    rec_.end_ns = tracer_->nowNs();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_.push_back(rec_);
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            out.push_back(s.seconds());
    return out;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (const SpanRecord &s : spans_)
        if (name == s.name)
            sum += s.seconds();
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%lld,\"parent\":%lld,"
                      "\"op\":%lld}}%s\n",
                      s.name, s.thread, s.start_ns * 1e-3,
                      (s.end_ns - s.start_ns) * 1e-3,
                      static_cast<long long>(s.id),
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.op),
                      i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
