#include "perfbench/jobs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "workloads/bfs.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spm_transpose.hpp"
#include "workloads/spmv.hpp"
#include "workloads/uts.hpp"

namespace perfbench {

using namespace spmrt;
using namespace spmrt::workloads;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** FNV-1a over the raw bytes of a value array. */
template <typename T>
uint64_t
fnvBytes(const std::vector<T> &values)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto *bytes = reinterpret_cast<const unsigned char *>(values.data());
    for (size_t i = 0; i < values.size() * sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Data seed @p index of workload seed @p seed (never 0). */
uint64_t
dataSeed(uint64_t seed, uint64_t index)
{
    return hash64(seed * 0x9e3779b97f4a7c15ULL + index + 1) | 1;
}

/** Sanity band: [expected / 2, expected * 2]. */
Band
around(uint64_t expected)
{
    return Band{expected / 2, expected * 2};
}

/** Instructions band of the dynamic kernels: 16-128 simulated ops/task. */
Band
opsPerTask(Band tasks)
{
    return Band{tasks.lo * 16, tasks.hi * 128};
}

/** Canonical digest of a CSR: rows in order, entries sorted per row. */
uint64_t
canonicalCsrDigest(const std::vector<uint32_t> &row_ptr,
                   const std::vector<uint32_t> &col_idx,
                   const std::vector<float> &values)
{
    std::vector<uint32_t> words(row_ptr);
    std::vector<std::pair<uint32_t, uint32_t>> row;
    for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
        row.clear();
        for (uint32_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
            uint32_t bits;
            std::memcpy(&bits, &values[e], sizeof bits);
            row.emplace_back(col_idx[e], bits);
        }
        std::sort(row.begin(), row.end());
        for (const auto &[col, bits] : row) {
            words.push_back(col);
            words.push_back(bits);
        }
    }
    return fnvBytes(words);
}

/** Throw unless every simulated value is within @p rel of the reference. */
template <typename Ref, typename Sim>
void
checkClose(const std::string &what, const std::vector<Ref> &expected,
           const std::vector<Sim> &actual, double rel)
{
    if (expected.size() != actual.size())
        throw std::runtime_error(what + ": output length mismatch");
    for (size_t i = 0; i < expected.size(); ++i) {
        double want = static_cast<double>(expected[i]);
        double got = static_cast<double>(actual[i]);
        if (!(std::fabs(want - got) <= rel * (1.0 + std::fabs(want))))
            throw std::runtime_error(what + ": value " + std::to_string(i) +
                                     " is " + std::to_string(got) +
                                     ", host reference " +
                                     std::to_string(want));
    }
}

// ---- dynamic task-parallel jobs ------------------------------------------

JobSpec
fibJob(int n)
{
    JobSpec job;
    job.key = "fib/" + std::to_string(n);
    job.exactDigest = true;
    job.expectedDigest = static_cast<uint64_t>(fibReference(n));
    // One task per call: 2 fib(n + 1) - 1.
    job.tasks = around(2 * static_cast<uint64_t>(fibReference(n + 1)));
    job.instructions = opsPerTask(job.tasks);
    job.upload = [n](Machine &machine) {
        Addr out = machine.dramAlloc(8, 8);
        Instance inst;
        inst.root = [n, out](TaskContext &tc) { fibKernel(tc, n, out); };
        inst.verify = [out](Machine &m) {
            return static_cast<uint64_t>(m.mem().peekAs<int64_t>(out));
        };
        return inst;
    };
    return job;
}

JobSpec
nqueensJob(uint32_t n)
{
    // Tasks executed per board size, measured once (seed-independent).
    static const std::map<uint32_t, uint64_t> kTasks = {
        {6, 1640}, {7, 6657}, {8, 29476}, {9, 136715}, {10, 661486}};
    JobSpec job;
    job.key = "nqueens/" + std::to_string(n);
    job.exactDigest = true;
    job.expectedDigest = nqueensReference(n);
    job.tasks = around(kTasks.at(n));
    job.instructions = opsPerTask(job.tasks);
    job.upload = [n](Machine &machine) {
        NQueensData data = nqueensSetup(machine, n);
        Instance inst;
        inst.root = [data](TaskContext &tc) { nqueensKernel(tc, data); };
        inst.verify = [data](Machine &m) { return nqueensResult(m, data); };
        return inst;
    };
    return job;
}

/**
 * A binomial UTS tree (m = 4, q = 1/8). The root's many children make the
 * tree size a sum of independent subtrees of expected size 2, so it
 * concentrates around 2 root_branch nodes for every seed; a geometric tree
 * can collapse to a few nodes on an unlucky root seed.
 */
JobSpec
utsJob(uint32_t root_branch, uint64_t seed)
{
    constexpr uint32_t kM = 4;
    constexpr double kQ = 0.125;
    UtsParams params = UtsParams::binomial(root_branch, kM, kQ, seed);
    const uint64_t expected_nodes =
        static_cast<uint64_t>(root_branch / (1.0 - kM * kQ)) + 1;
    JobSpec job;
    job.key = "uts/bin" + std::to_string(root_branch) + "/" +
              std::to_string(seed);
    job.exactDigest = true;
    job.expectedDigest = utsReference(params);
    // About two tasks per tree node.
    job.tasks = Band{expected_nodes, expected_nodes * 4};
    job.instructions = opsPerTask(job.tasks);
    job.upload = [params](Machine &machine) {
        UtsData data = utsSetup(machine, params);
        Instance inst;
        inst.root = [data](TaskContext &tc) { utsKernel(tc, data); };
        inst.verify = [data](Machine &m) { return utsResult(m, data); };
        return inst;
    };
    return job;
}

JobSpec
cilksortJob(std::shared_ptr<const std::vector<uint32_t>> keys,
            uint64_t seed)
{
    const uint64_t n = keys->size();
    std::vector<uint32_t> sorted(*keys);
    std::sort(sorted.begin(), sorted.end());
    JobSpec job;
    job.key = "cilksort/" + std::to_string(n) + "/" + std::to_string(seed);
    job.exactDigest = true;
    job.expectedDigest = fnvBytes(sorted);
    // Leaves sort ~1K keys each; ~n log n simulated ops.
    job.tasks = Band{n / 4096, n};
    job.instructions = Band{n * 8, n * 512};
    job.upload = [keys](Machine &machine) {
        CilkSortData data = cilksortSetupFrom(machine, *keys);
        Instance inst;
        inst.root = [data](TaskContext &tc) { cilksortKernel(tc, data); };
        inst.verify = [data](Machine &m) {
            return fnvBytes(downloadArray<uint32_t>(m, data.data, data.n));
        };
        return inst;
    };
    return job;
}

// ---- irregular static-unbalanced jobs ------------------------------------

struct GraphInput
{
    std::string name;
    HostGraph graph;
};

struct MatrixInput
{
    std::string name;
    HostCsr matrix;
    std::vector<float> x; ///< SpMV input vector
};

constexpr uint32_t kPageRankIterations = 1;

/** Sanity bands of the irregular kernels, scaled by the input size. */
void
irregularBands(JobSpec &job, uint64_t work_items)
{
    // Loop chunks execute as tasks under work stealing; the static
    // runtime runs fixed chunks and counts no tasks. Every element costs
    // a handful of simulated ops.
    job.tasks = job.staticRuntime ? Band{0, 0} : Band{64, work_items * 4};
    job.instructions = Band{work_items, work_items * 256};
}

JobSpec
bfsJob(std::shared_ptr<const GraphInput> in, bool is_static)
{
    JobSpec job;
    job.key = "bfs/" + in->name + (is_static ? "/static" : "/ws");
    job.staticRuntime = is_static;
    job.exactDigest = true;
    job.expectedDigest = fnvBytes(bfsReference(in->graph, 0));
    irregularBands(job, in->graph.numVertices + in->graph.numEdges());
    job.upload = [in](Machine &machine) {
        auto data = std::make_shared<BfsData>(bfsSetup(machine, in->graph, 0));
        Instance inst;
        inst.root = [data](TaskContext &tc) { bfsKernel(tc, *data); };
        inst.verify = [data, in](Machine &m) {
            return fnvBytes(downloadArray<uint32_t>(
                m, data->joinLevel, in->graph.numVertices));
        };
        return inst;
    };
    return job;
}

JobSpec
pagerankJob(std::shared_ptr<const GraphInput> in,
            std::shared_ptr<const std::vector<double>> reference,
            bool is_static)
{
    JobSpec job;
    job.key = "pagerank/" + in->name + (is_static ? "/static" : "/ws");
    job.staticRuntime = is_static;
    irregularBands(job, in->graph.numVertices + in->graph.numEdges());
    job.upload = [in, reference](Machine &machine) {
        auto data =
            std::make_shared<PageRankData>(pagerankSetup(machine, in->graph));
        Instance inst;
        inst.root = [data](TaskContext &tc) {
            pagerankKernel(tc, *data, kPageRankIterations);
        };
        inst.verify = [data, in, reference](Machine &m) {
            std::vector<float> rank = downloadArray<float>(
                m, data->rank, in->graph.numVertices);
            checkClose("pagerank", *reference, rank, 1e-4);
            return fnvBytes(rank);
        };
        return inst;
    };
    return job;
}

JobSpec
spmvJob(std::shared_ptr<const MatrixInput> in,
        std::shared_ptr<const std::vector<float>> reference, bool is_static)
{
    JobSpec job;
    job.key = "spmv/" + in->name + (is_static ? "/static" : "/ws");
    job.staticRuntime = is_static;
    irregularBands(job, in->matrix.rows + in->matrix.nnz());
    job.upload = [in, reference](Machine &machine) {
        auto data = std::make_shared<SpmvData>();
        data->a = SimCsr::upload(machine, in->matrix);
        data->x = uploadArray(machine, in->x);
        data->y = allocZeroArray<float>(machine, in->matrix.rows);
        Instance inst;
        inst.root = [data](TaskContext &tc) { spmvKernel(tc, *data); };
        inst.verify = [data, in, reference](Machine &m) {
            std::vector<float> y =
                downloadArray<float>(m, data->y, in->matrix.rows);
            checkClose("spmv", *reference, y, 1e-3);
            return fnvBytes(y);
        };
        return inst;
    };
    return job;
}

JobSpec
spmtJob(std::shared_ptr<const MatrixInput> in, uint64_t reference,
        bool is_static)
{
    JobSpec job;
    job.key = "spmt/" + in->name + (is_static ? "/static" : "/ws");
    job.staticRuntime = is_static;
    job.exactDigest = true;
    job.expectedDigest = reference;
    irregularBands(job, in->matrix.rows + in->matrix.nnz());
    job.upload = [in](Machine &machine) {
        auto data = std::make_shared<SpmTransposeData>(
            spmTransposeSetup(machine, in->matrix));
        Instance inst;
        inst.root = [data](TaskContext &tc) {
            spmTransposeKernel(tc, *data);
        };
        inst.verify = [data, in](Machine &m) {
            const HostCsr &a = in->matrix;
            return canonicalCsrDigest(
                downloadArray<uint32_t>(m, data->outRowPtr, a.cols + 1),
                downloadArray<uint32_t>(m, data->outColIdx, a.nnz()),
                downloadArray<float>(m, data->outValues, a.nnz()));
        };
        return inst;
    };
    return job;
}

// ---- the three workloads -------------------------------------------------

/**
 * sweep-short: a figure sweep of short dynamic sims (10-50 ms of run on
 * 128 cores each), so per-job fixed cost — Machine build and teardown —
 * dominates. Every third distinct job is resubmitted at the end of the
 * batch, as a re-run sweep would, to drive the result cache and the
 * in-flight coalescing path.
 */
Batch
sweepShort(uint64_t seed)
{
    Batch batch;
    Clock::time_point gen_start = Clock::now();
    std::vector<std::shared_ptr<const std::vector<uint32_t>>> keys;
    const uint32_t sort_sizes[] = {8192, 16384, 32768};
    for (size_t i = 0; i < 3; ++i)
        keys.push_back(std::make_shared<const std::vector<uint32_t>>(
            cilksortKeys(sort_sizes[i], dataSeed(seed, 10 + i))));
    batch.inputGenMs = msSince(gen_start);

    std::vector<JobSpec> distinct;
    for (int n : {14, 15, 16, 17})
        distinct.push_back(fibJob(n));
    for (uint32_t n : {6u, 7u, 8u})
        distinct.push_back(nqueensJob(n));
    const uint32_t uts_roots[] = {1024, 2048, 4096};
    for (size_t i = 0; i < 3; ++i)
        distinct.push_back(utsJob(uts_roots[i], dataSeed(seed, 20 + i)));
    for (size_t i = 0; i < 3; ++i)
        distinct.push_back(cilksortJob(keys[i], dataSeed(seed, 10 + i)));

    batch.tailPercentile = 90;
    batch.jobs = distinct;
    for (size_t i = 0; i < distinct.size(); i += 3) {
        JobSpec dup = distinct[i];
        dup.duplicate = true;
        batch.jobs.push_back(std::move(dup));
    }
    return batch;
}

/**
 * dynamic-long: long work-stealing sims whose run phase dominates:
 * switch- and steal-dense, with far less memory traffic per op than
 * irregular-long.
 */
Batch
dynamicLong(uint64_t seed)
{
    Batch batch;
    Clock::time_point gen_start = Clock::now();
    std::vector<std::shared_ptr<const std::vector<uint32_t>>> keys;
    for (uint32_t i = 0; i < 3; ++i)
        keys.push_back(std::make_shared<const std::vector<uint32_t>>(
            cilksortKeys(1u << (18 + i), dataSeed(seed, 30 + i))));
    batch.inputGenMs = msSince(gen_start);

    batch.jobs.push_back(nqueensJob(10));
    batch.jobs.push_back(utsJob(131072, dataSeed(seed, 35)));
    batch.jobs.push_back(cilksortJob(keys[2], dataSeed(seed, 32)));
    batch.jobs.push_back(utsJob(65536, dataSeed(seed, 36)));
    batch.jobs.push_back(cilksortJob(keys[1], dataSeed(seed, 31)));
    batch.jobs.push_back(utsJob(32768, dataSeed(seed, 37)));
    batch.jobs.push_back(nqueensJob(9));
    for (int n : {24, 23, 22})
        batch.jobs.push_back(fibJob(n));
    batch.jobs.push_back(cilksortJob(keys[0], dataSeed(seed, 30)));
    batch.tailPercentile = 80;
    return batch;
}

/**
 * irregular-long: BFS, PageRank, SpMV and SpMT on the power-law "email"
 * and banded "c-58" stand-ins, each under both runtimes, so the same
 * memory pipeline is driven by two schedulers. The inputs are generated
 * once per batch and uploaded by every job.
 */
Batch
irregularLong(uint64_t seed)
{
    constexpr uint32_t kVertices = 16384;
    constexpr uint32_t kDegree = 16;
    constexpr uint32_t kRows = 16384;
    constexpr uint32_t kRowNnz = 8;

    Batch batch;
    Clock::time_point gen_start = Clock::now();
    auto email = std::make_shared<GraphInput>();
    email->name = "email";
    email->graph =
        genPowerLaw(kVertices, kDegree, 0.7, dataSeed(seed, 40));
    auto c58 = std::make_shared<GraphInput>();
    c58->name = "c-58";
    c58->graph = genBanded(kVertices, kVertices / 170, kDegree,
                           dataSeed(seed, 41));
    auto email_m = std::make_shared<MatrixInput>();
    email_m->name = "email";
    email_m->matrix =
        genCsrPowerLaw(kRows, kRows, kRowNnz, 0.7, dataSeed(seed, 42));
    auto c58_m = std::make_shared<MatrixInput>();
    c58_m->name = "c-58";
    c58_m->matrix = genCsrBanded(kRows, 24, kRowNnz, dataSeed(seed, 43));
    for (MatrixInput *m : {email_m.get(), c58_m.get()}) {
        Xoshiro256StarStar rng(dataSeed(seed, 44));
        m->x.resize(m->matrix.cols);
        for (float &v : m->x)
            v = static_cast<float>(rng.nextDouble() * 2.0 - 1.0);
    }
    batch.inputGenMs = msSince(gen_start);

    std::map<std::string, JobSpec> jobs;
    auto add = [&jobs](JobSpec job) { jobs.emplace(job.key, std::move(job)); };
    for (bool is_static : {false, true}) {
        for (auto graph : {std::shared_ptr<const GraphInput>(email),
                           std::shared_ptr<const GraphInput>(c58)}) {
            add(bfsJob(graph, is_static));
            auto ranks = std::make_shared<const std::vector<double>>(
                pagerankReference(graph->graph, kPageRankIterations,
                                  PageRankData{}.damping));
            add(pagerankJob(graph, ranks, is_static));
        }
        for (auto m : {std::shared_ptr<const MatrixInput>(email_m),
                       std::shared_ptr<const MatrixInput>(c58_m)}) {
            auto y = std::make_shared<const std::vector<float>>(
                m->matrix.multiply(m->x));
            add(spmvJob(m, y, is_static));
            HostCsr t = m->matrix.transposed();
            add(spmtJob(m, canonicalCsrDigest(t.rowPtr, t.colIdx, t.values),
                        is_static));
        }
    }

    // Submission order: longest first, so four workers finish the batch
    // close together (BFS on the high-diameter c-58 graph under work
    // stealing alone takes most of a batch).
    for (const char *key :
         {"bfs/c-58/ws", "spmt/email/ws", "bfs/c-58/static", "spmt/c-58/ws",
          "pagerank/email/ws", "pagerank/c-58/ws", "spmt/c-58/static",
          "pagerank/c-58/static", "bfs/email/ws", "spmt/email/static",
          "spmv/email/ws", "pagerank/email/static", "spmv/c-58/ws",
          "spmv/c-58/static", "spmv/email/static", "bfs/email/static"})
        batch.jobs.push_back(jobs.at(key));
    if (batch.jobs.size() != jobs.size())
        throw std::logic_error("irregular-long: submission order misses a job");
    batch.tailPercentile = 78;
    return batch;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-short", "dynamic-long", "irregular-long"};
    return names;
}

Batch
buildBatch(const std::string &workload, uint64_t seed)
{
    if (workload == "sweep-short")
        return sweepShort(seed);
    if (workload == "dynamic-long")
        return dynamicLong(seed);
    if (workload == "irregular-long")
        return irregularLong(seed);
    throw std::runtime_error("unknown workload '" + workload + "'");
}

} // namespace perfbench
