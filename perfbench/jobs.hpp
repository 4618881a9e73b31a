/**
 * @file
 * The benchmark's three workloads as batches of verified simulation jobs.
 *
 * Every job is defined here from the library's public workload kernels;
 * the benchmark deliberately does not reuse bench/rows.hpp, so an edit to
 * the figure benches cannot silently change what this benchmark measures.
 * A batch is a pure function of (workload name, workload seed): the seed
 * picks every data seed (cilksort keys, UTS roots, graph and matrix
 * generators) and the sizes stay fixed.
 */

#ifndef SPMRT_PERFBENCH_JOBS_HPP
#define SPMRT_PERFBENCH_JOBS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/context.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/** Inclusive range a per-job count must fall in (input sanity). */
struct Band
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool contains(uint64_t v) const { return v >= lo && v <= hi; }
};

/** One job's inputs uploaded into a fresh Machine. */
struct Instance
{
    std::function<void(spmrt::TaskContext &)> root;
    /**
     * Digest of the simulated output. Throws std::runtime_error when the
     * output disagrees with the host reference beyond the workload's
     * tolerance (floating-point kernels); exact kernels are compared
     * against JobSpec::expectedDigest by the caller instead.
     */
    std::function<uint64_t(spmrt::Machine &)> verify;
};

/** One job of a batch. */
struct JobSpec
{
    std::string key;          ///< unique per distinct simulation
    bool staticRuntime = false;
    bool duplicate = false;   ///< resubmission of an earlier key
    bool exactDigest = false; ///< expectedDigest is the host reference
    uint64_t expectedDigest = 0;
    Band tasks;               ///< runtime.tasks_executed sanity band
    Band instructions;        ///< sim.instructions sanity band
    std::function<Instance(spmrt::Machine &)> upload;
};

/** A workload's batch plus the cost of building its shared inputs. */
struct Batch
{
    std::vector<JobSpec> jobs;
    double inputGenMs = 0; ///< graph/matrix/key generation
    /**
     * Percentile reported as job_ms_tail. Fixed per workload so runs
     * compare like with like: at the benchmark's run length it leaves at
     * least ten job samples beyond it, and it falls inside one job's
     * cluster of samples rather than between two.
     */
    double tailPercentile = 90;
};

/** The workload names, in the order the benchmark documents them. */
const std::vector<std::string> &workloadNames();

/** Build @p workload's batch for @p seed (throws on an unknown name). */
Batch buildBatch(const std::string &workload, uint64_t seed);

} // namespace perfbench

#endif // SPMRT_PERFBENCH_JOBS_HPP
