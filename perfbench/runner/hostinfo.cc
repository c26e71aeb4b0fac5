#include "hostinfo.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench
{

namespace
{

/** Value of a `KEY:TYPE=value` line in a CMakeCache.txt. */
std::string
cacheEntry(const std::string &text, const std::string &key)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind(key + ":", 0) != 0)
            continue;
        const auto eq = line.find('=');
        return eq == std::string::npos ? "" : line.substr(eq + 1);
    }
    return "";
}

/** Value of a `set(NAME "value")` line in a CMake-written file. */
std::string
setEntry(const std::string &text, const std::string &name)
{
    const std::string probe = "set(" + name + " \"";
    const auto at = text.find(probe);
    if (at == std::string::npos)
        return "";
    const auto begin = at + probe.size();
    const auto end = text.find('"', begin);
    return end == std::string::npos ? "" : text.substr(begin, end - begin);
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

BuildInfo
readBuildInfo(const std::string &build_dir)
{
    namespace fs = std::filesystem;
    BuildInfo info;
    const std::string cache = slurp(fs::path(build_dir) / "CMakeCache.txt");
    info.build_type = cacheEntry(cache, "CMAKE_BUILD_TYPE");
    info.compiler = cacheEntry(cache, "CMAKE_CXX_COMPILER");

    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(fs::path(build_dir) / "CMakeFiles", ec)) {
        const fs::path f = entry.path() / "CMakeCXXCompiler.cmake";
        if (!fs::exists(f))
            continue;
        const std::string text = slurp(f);
        info.compiler_id = setEntry(text, "CMAKE_CXX_COMPILER_ID");
        info.compiler_version =
            setEntry(text, "CMAKE_CXX_COMPILER_VERSION");
        break;
    }
    return info;
}

int
cpuCount()
{
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench
