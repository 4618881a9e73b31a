/**
 * @file
 * Host facts the fleet and the benches size themselves by.
 *
 * std::thread::hardware_concurrency() counts the machine's cores, not
 * the ones this process may use: a container pinned to a CPU subset or
 * throttled by a cgroup CPU quota sees every core of the host. Worker
 * pools sized by it oversubscribe, and trajectory rows labelled with it
 * name the wrong host.
 */

#ifndef SPMRT_COMMON_HOST_HPP
#define SPMRT_COMMON_HOST_HPP

#include <cstdint>
#include <string>

namespace spmrt {
namespace host {

/**
 * Cores granted by a cgroup CPU quota written as "<quota> <period>"
 * (cgroup v2 `cpu.max`, or v1 `cpu.cfs_quota_us` and `cpu.cfs_period_us`
 * joined by a space), rounded up: "150000 100000" is 2. Returns 0 when
 * the quota is unlimited ("max", or v1's -1) or the text is malformed.
 */
uint32_t quotaCores(const std::string &quota_period);

/**
 * Cores this process may use: the sched_getaffinity mask, capped by the
 * cgroup CPU quota when there is one. Always at least 1.
 */
uint32_t usableCores();

} // namespace host
} // namespace spmrt

#endif // SPMRT_COMMON_HOST_HPP
