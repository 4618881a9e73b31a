#include "common/host.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace spmrt {
namespace host {

namespace {

/** First whitespace-separated token of @p path ("" if unreadable). */
std::string
readToken(const char *path)
{
    std::ifstream in(path);
    std::string token;
    in >> token;
    return token;
}

/** Cores granted by this process's cgroup CPU quota (0 = unlimited). */
uint32_t
cgroupQuotaCores()
{
    std::ifstream v2("/sys/fs/cgroup/cpu.max");
    std::string line;
    if (std::getline(v2, line))
        return quotaCores(line);
    return quotaCores(readToken("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") +
                      " " +
                      readToken("/sys/fs/cgroup/cpu/cpu.cfs_period_us"));
}

} // namespace

uint32_t
quotaCores(const std::string &quota_period)
{
    std::istringstream in(quota_period);
    std::string quota;
    long long period = 0;
    if (!(in >> quota >> period) || period <= 0)
        return 0;
    // "max" and any other non-number parse as 0: no limit.
    long long limit = std::atoll(quota.c_str());
    if (limit <= 0)
        return 0;
    return static_cast<uint32_t>((limit + period - 1) / period);
}

uint32_t
usableCores()
{
    uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        cores = static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
    uint32_t quota = cgroupQuotaCores();
    return quota == 0 ? cores : std::min(cores, quota);
}

} // namespace host
} // namespace spmrt
