#include "cache.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/hash.hh"
#include "base/logging.hh"

namespace fs = std::filesystem;

namespace smtsim::lab
{

namespace
{

/** Read a whole record file with one read call (short reads
 *  retried); false on any failure. */
bool
readFile(const std::string &path, std::string *out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0;
    if (ok) {
        out->resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (got < out->size()) {
            const ssize_t n =
                ::read(fd, out->data() + got, out->size() - got);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        out->resize(got);
    }
    ::close(fd);
    return ok;
}

/** Parse a record and check schema + canonical identity. */
bool
recordMatches(const std::string &text, const std::string &canonical,
              Json *record)
{
    try {
        Json parsed = Json::parse(text);
        if (parsed.at("schema").asInt() != kCacheSchemaVersion)
            return false;
        if (parsed.at("canonical").asString() != canonical)
            return false;   // FNV collision or stale key scheme
        *record = std::move(parsed);
        return true;
    } catch (const JsonParseError &) {
        return false;       // torn/corrupt record: treat as miss
    }
}

} // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes)
{
    if (max_bytes_ > 0) {
        check_interval_ =
            std::max<std::uint64_t>(4096, max_bytes_ / 8);
        enforceLimit();   // trim a pre-existing oversized dir
    }
}

std::string
ResultCache::pathFor(const std::string &key) const
{
    const std::string shard =
        key.size() >= 2 ? key.substr(0, 2) : std::string("xx");
    return (fs::path(dir_) / shard / (key + ".json")).string();
}

bool
ResultCache::load(const Job &job, JobResult *out) const
{
    if (!enabled())
        return false;
    const std::string canonical = job.canonical();
    const std::string key = hashToHex(fnv1a(canonical));
    const std::string path = pathFor(key);
    std::string text;
    if (!readFile(path, &text))
        return false;
    Json record;
    if (!recordMatches(text, canonical, &record))
        return false;
    try {
        JobResult r = resultFromJson(record.at("result"));
        if (!r.ok)
            return false;
        r.id = job.id;      // renames must not pin the old label
        r.key = key;
        r.from_cache = true;
        r.wall_seconds = 0.0;
        *out = std::move(r);
    } catch (const JsonParseError &) {
        return false;
    }
    if (max_bytes_ > 0) {
        // LRU stamp: a hit makes the record recently-used.
        std::error_code ec;
        fs::last_write_time(path,
                            fs::file_time_type::clock::now(), ec);
    }
    return true;
}

bool
ResultCache::contains(const Job &job) const
{
    if (!enabled())
        return false;
    const std::string canonical = job.canonical();
    std::string text;
    if (!readFile(pathFor(hashToHex(fnv1a(canonical))), &text))
        return false;
    Json record;
    return recordMatches(text, canonical, &record);
}

void
ResultCache::store(const Job &job, const JobResult &result) const
{
    if (!enabled())
        return;
    const std::string canonical = job.canonical();
    const std::string key = hashToHex(fnv1a(canonical));
    Json record = Json::object();
    record.set("schema", Json(kCacheSchemaVersion));
    record.set("key", Json(key));
    record.set("canonical", Json(canonical));
    record.set("result", resultToJson(result));

    static std::atomic<unsigned> counter{0};
    const fs::path path = pathFor(key);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec)
        return;
    const fs::path tmp =
        path.parent_path() /
        (key + ".tmp." + std::to_string(counter.fetch_add(1)) +
         "." + std::to_string(::getpid()));
    const std::string text = record.dump(2) + "\n";
    {
        std::ofstream outf(tmp);
        if (!outf)
            return;
        outf << text;
        if (!outf)
            return;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }

    if (max_bytes_ == 0)
        return;
    bool check = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_bytes_ += text.size();
        if (pending_bytes_ >= check_interval_) {
            pending_bytes_ = 0;
            check = true;
        }
    }
    if (check)
        enforceLimit();
}

std::uint64_t
ResultCache::diskBytes() const
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(dir_, ec)) {
        std::error_code shard_ec;
        for (const auto &entry :
             fs::directory_iterator(shard.path(), shard_ec)) {
            if (entry.path().extension() != ".json")
                continue;
            std::error_code size_ec;
            const auto size = entry.file_size(size_ec);
            if (!size_ec)
                total += size;
        }
    }
    return total;
}

std::size_t
ResultCache::enforceLimit() const
{
    if (!enabled() || max_bytes_ == 0)
        return 0;

    struct Entry
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    const auto now = fs::file_time_type::clock::now();

    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(dir_, ec)) {
        std::error_code shard_ec;
        for (const auto &entry :
             fs::directory_iterator(shard.path(), shard_ec)) {
            std::error_code stat_ec;
            const auto mtime = entry.last_write_time(stat_ec);
            if (stat_ec)
                continue;   // lost a race to another evictor
            if (entry.path().extension() != ".json") {
                // Orphaned temp file from a crashed writer: sweep
                // it once it is clearly abandoned.
                if (entry.path().filename().string().find(".tmp.")
                        != std::string::npos &&
                    now - mtime > std::chrono::hours(1)) {
                    std::error_code rm_ec;
                    fs::remove(entry.path(), rm_ec);
                }
                continue;
            }
            std::error_code size_ec;
            const auto size = entry.file_size(size_ec);
            if (size_ec)
                continue;
            entries.push_back({entry.path(), size, mtime});
            total += size;
        }
    }
    if (total <= max_bytes_)
        return 0;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    // Hysteresis: trim to 7/8 of the budget so back-to-back stores
    // do not re-trigger a full scan immediately.
    const std::uint64_t target = max_bytes_ - max_bytes_ / 8;
    std::size_t evicted = 0;
    for (const Entry &e : entries) {
        if (total <= target)
            break;
        std::error_code rm_ec;
        fs::remove(e.path, rm_ec);
        if (!rm_ec) {
            total -= std::min(total, e.size);
            ++evicted;
        }
    }
    return evicted;
}

} // namespace smtsim::lab
