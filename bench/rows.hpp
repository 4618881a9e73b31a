/**
 * @file
 * The workload/input rows of the paper's Table 1, with scaled-down
 * structural stand-ins for the paper's datasets (see DESIGN.md Sec. 2):
 *
 *   paper input      stand-in here
 *   MatMul 256/512   128 / 256 (same tiled kernel, 3 KB SPM reserve)
 *   g14k16           uniform random, 2^13 vertices, degree 16
 *   email-*          power-law (Zipf 0.7 endpoints, clustered hubs)
 *   c-58             banded structural matrix/graph
 *   bundle1          dense-row-minority ("bundle") matrix
 *   CilkSort 16K/128K  16K / 64K keys
 *   NQueens 8/9/10   6 / 7 / 8 (same backtracking kernel)
 *   UTS small-t1/t3  geometric / binomial splittable-RNG trees
 *
 * rowRequest() turns one (row, machine, runtime) cell into a fleet job;
 * every bench built on these rows submits its cells through it.
 */

#ifndef SPMRT_BENCH_ROWS_HPP
#define SPMRT_BENCH_ROWS_HPP

#include <memory>

#include "bench/fleet_util.hpp"
#include "workloads/bfs.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/mat_transpose.hpp"
#include "workloads/matmul.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spm_transpose.hpp"
#include "workloads/spmv.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace bench {

/** One (workload, input) row of Table 1. */
struct WorkloadRow
{
    std::string workload;
    std::string input;
    bool hasStatic = true; ///< spawn-sync rows have no static baseline
    uint32_t spmReserve = 0;
    /** Upload the input on a fresh machine; digest 1 = output verified. */
    std::function<serve::PreparedJob(Machine &)> prepare;
};

/** A row instance: @p root, and a digest of 1 when @p verify passes. */
inline serve::PreparedJob
rowJob(std::function<void(TaskContext &)> root,
       std::function<bool(Machine &)> verify)
{
    serve::PreparedJob prep;
    prep.root = std::move(root);
    prep.digest = [verify = std::move(verify)](Machine &machine) {
        return verify(machine) ? 1ull : 0ull;
    };
    return prep;
}

/**
 * One simulated cell of @p row as a fleet job: the row's input on
 * @p machine under @p runtime, or under the static fork-join runtime
 * when @p static_runtime. @p name is also the cache key. Verification
 * folds into the digest contract (digest 1 = verified), and the first
 * cell to run captures the SPMRT_TRACE_OUT trace.
 */
inline serve::JobRequest
rowRequest(const WorkloadRow &row, const MachineConfig &machine,
           const RuntimeConfig &runtime, bool static_runtime,
           const std::string &name)
{
    serve::JobRequest req;
    req.name = name;
    req.cacheKey = name;
    req.machine = machine;
    req.runtime = runtime;
    req.runtime.userSpmReserve = row.spmReserve;
    req.staticRuntime = static_runtime;
    req.armChecker = false;
    req.expectedDigest = 1;
    req.hasExpectedDigest = true;
    req.prepare = [prepare = row.prepare](Machine &m, serve::AssetCache &) {
        maybeArmTrace(m);
        serve::PreparedJob prep = prepare(m);
        prep.digest = [verify = std::move(prep.digest)](Machine &done) {
            maybeWriteTrace(done);
            return verify(done);
        };
        return prep;
    };
    return req;
}

/** Graph inputs shared by PageRank and BFS. */
inline HostGraph
benchGraph(const std::string &kind, uint32_t vertices, uint32_t degree)
{
    if (kind == "uniform")
        return genUniformRandom(vertices, degree, 1001);
    if (kind == "email")
        return genPowerLaw(vertices, degree, 0.7, 1002);
    if (kind == "c-58") {
        // Band width scaled with |V| so the BFS diameter (≈ V/band)
        // stays in the low hundreds of levels, as for the real c-58.
        return genBanded(vertices, vertices / 170, degree, 1003);
    }
    SPMRT_FATAL("unknown graph kind %s", kind.c_str());
}

/** Matrix inputs shared by SpMV and SpMatrixTranspose. */
inline HostCsr
benchMatrix(const std::string &kind, uint32_t n, uint32_t nnz)
{
    if (kind == "bundle1")
        return genCsrBundle(n, n, n / 256, nnz * 64, nnz / 2, 2001);
    if (kind == "email")
        return genCsrPowerLaw(n, n, nnz, 0.7, 2002);
    if (kind == "c-58")
        return genCsrBanded(n, 24, nnz, 2003);
    SPMRT_FATAL("unknown matrix kind %s", kind.c_str());
}

/** Build the full row list (quick mode shrinks the inputs). */
inline std::vector<WorkloadRow>
table1Rows()
{
    using namespace spmrt::workloads;
    std::vector<WorkloadRow> rows;

    // ---- MatMul (static-balanced) --------------------------------------
    for (uint32_t n : {scaled<uint32_t>(128, 64), scaled<uint32_t>(256, 64)}) {
        if (!rows.empty() && rows.back().workload == "MatMul" &&
            rows.back().input == std::to_string(n))
            continue; // quick mode collapses the two sizes
        WorkloadRow row;
        row.workload = "MatMul";
        row.input = std::to_string(n);
        row.spmReserve = kMatMulSpmReserve;
        row.prepare = [n](Machine &machine) {
            auto data = std::make_shared<MatMulData>(
                matmulSetup(machine, n, 100));
            auto a = std::make_shared<HostDense>(
                genDenseRandom(n, n, 100));
            auto b = std::make_shared<HostDense>(
                genDenseRandom(n, n, 101));
            return rowJob(
                [data](TaskContext &tc) { matmulKernel(tc, *data); },
                [data, a, b](Machine &machine) {
                    return matmulVerify(machine, *data, *a, *b);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- PageRank (static-unbalanced) ----------------------------------
    // Full size matches the paper's g14k16: 2^14 vertices, degree 16.
    const uint32_t graph_v = scaled<uint32_t>(16384, 1024);
    const uint32_t graph_d = scaled<uint32_t>(16, 8);
    for (const char *kind : {"uniform", "email", "c-58"}) {
        WorkloadRow row;
        row.workload = "PageRank";
        row.input = kind;
        std::string kind_str = kind;
        row.prepare = [kind_str, graph_v, graph_d](Machine &machine) {
            auto graph = std::make_shared<HostGraph>(
                benchGraph(kind_str, graph_v, graph_d));
            auto data = std::make_shared<PageRankData>(
                pagerankSetup(machine, *graph));
            return rowJob(
                [data](TaskContext &tc) { pagerankKernel(tc, *data, 1); },
                [data, graph](Machine &machine) {
                    return pagerankVerify(machine, *data, *graph, 1);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- BFS (static-unbalanced) ----------------------------------------
    for (const char *kind : {"uniform", "email", "c-58"}) {
        WorkloadRow row;
        row.workload = "BFS";
        row.input = kind;
        std::string kind_str = kind;
        row.prepare = [kind_str, graph_v, graph_d](Machine &machine) {
            auto graph = std::make_shared<HostGraph>(
                benchGraph(kind_str, graph_v, graph_d));
            auto data = std::make_shared<BfsData>(
                bfsSetup(machine, *graph, 0));
            return rowJob(
                [data](TaskContext &tc) { bfsKernel(tc, *data); },
                [data, graph](Machine &machine) {
                    return bfsVerify(machine, *data, *graph);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- SpMV (static-unbalanced) ----------------------------------------
    const uint32_t mat_n = scaled<uint32_t>(16384, 1024);
    const uint32_t mat_nnz = scaled<uint32_t>(8, 6);
    for (const char *kind : {"bundle1", "email", "c-58"}) {
        WorkloadRow row;
        row.workload = "SpMV";
        row.input = kind;
        std::string kind_str = kind;
        row.prepare = [kind_str, mat_n, mat_nnz](Machine &machine) {
            auto matrix = std::make_shared<HostCsr>(
                benchMatrix(kind_str, mat_n, mat_nnz));
            auto data = std::make_shared<SpmvData>(
                spmvSetup(machine, *matrix, 7));
            auto x = std::make_shared<std::vector<float>>(
                spmvInputVector(machine, *data));
            return rowJob(
                [data](TaskContext &tc) { spmvKernel(tc, *data); },
                [data, matrix, x](Machine &machine) {
                    return spmvVerify(machine, *data, *matrix, *x);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- SpMatrixTranspose (static-unbalanced) ----------------------------
    for (const char *kind : {"bundle1", "email", "c-58"}) {
        WorkloadRow row;
        row.workload = "SpMT";
        row.input = kind;
        std::string kind_str = kind;
        row.prepare = [kind_str, mat_n, mat_nnz](Machine &machine) {
            auto matrix = std::make_shared<HostCsr>(
                benchMatrix(kind_str, mat_n, mat_nnz));
            auto data = std::make_shared<SpmTransposeData>(
                spmTransposeSetup(machine, *matrix));
            return rowJob(
                [data](TaskContext &tc) { spmTransposeKernel(tc, *data); },
                [data, matrix](Machine &machine) {
                    return spmTransposeVerify(machine, *data, *matrix);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- MatrixTranspose (dynamic-balanced, no static baseline) -----------
    for (uint32_t n : {scaled<uint32_t>(128, 64), scaled<uint32_t>(256, 64)}) {
        if (!rows.empty() && rows.back().workload == "MatTrans" &&
            rows.back().input == std::to_string(n))
            continue;
        WorkloadRow row;
        row.workload = "MatTrans";
        row.input = std::to_string(n);
        row.hasStatic = false;
        row.prepare = [n](Machine &machine) {
            auto input = std::make_shared<HostDense>(
                genDenseRandom(n, n, 600));
            auto data = std::make_shared<MatTransposeData>(
                matTransposeSetup(machine, n, 600));
            return rowJob(
                [data](TaskContext &tc) { matTransposeKernel(tc, *data); },
                [data, input](Machine &machine) {
                    return matTransposeVerify(machine, *data, *input);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- CilkSort (dynamic-unbalanced, no static baseline) ----------------
    for (uint32_t n :
         {scaled<uint32_t>(16384, 4096), scaled<uint32_t>(65536, 4096)}) {
        if (!rows.empty() && rows.back().workload == "CilkSort" &&
            rows.back().input == std::to_string(n))
            continue;
        WorkloadRow row;
        row.workload = "CilkSort";
        row.input = std::to_string(n);
        row.hasStatic = false;
        row.prepare = [n](Machine &machine) {
            auto data = std::make_shared<CilkSortData>(
                cilksortSetup(machine, n, 700));
            auto original = std::make_shared<std::vector<uint32_t>>(
                downloadArray<uint32_t>(machine, data->data, n));
            return rowJob(
                [data](TaskContext &tc) { cilksortKernel(tc, *data); },
                [data, original](Machine &machine) {
                    return cilksortVerify(machine, *data, *original);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- NQueens (dynamic-unbalanced) --------------------------------------
    for (uint32_t n : {6u, 7u, scaled<uint32_t>(8, 7)}) {
        if (!rows.empty() && rows.back().workload == "NQueens" &&
            rows.back().input == std::to_string(n))
            continue;
        WorkloadRow row;
        row.workload = "NQueens";
        row.input = std::to_string(n);
        row.prepare = [n](Machine &machine) {
            auto data = std::make_shared<NQueensData>(
                nqueensSetup(machine, n));
            return rowJob(
                [data](TaskContext &tc) { nqueensKernel(tc, *data); },
                [data, n](Machine &machine) {
                    return nqueensResult(machine, *data) ==
                           nqueensReference(n);
                });
        };
        rows.push_back(std::move(row));
    }

    // ---- UTS (dynamic-unbalanced) -------------------------------------------
    {
        std::vector<std::pair<std::string, workloads::UtsParams>> trees;
        trees.emplace_back(
            "t1-geo", UtsParams::geometric(scaled<uint32_t>(9, 7),
                                           scaled<double>(2.7, 2.2), 42));
        trees.emplace_back(
            "t3-bin",
            UtsParams::binomial(scaled<uint32_t>(256, 64), 4,
                                scaled<double>(0.246, 0.2), 77));
        for (auto &[name, params] : trees) {
            WorkloadRow row;
            row.workload = "UTS";
            row.input = name;
            UtsParams tree_params = params;
            row.prepare = [tree_params](Machine &machine) {
                auto data = std::make_shared<UtsData>(
                    utsSetup(machine, tree_params));
                uint64_t expected = utsReference(tree_params);
                return rowJob(
                    [data](TaskContext &tc) { utsKernel(tc, *data); },
                    [data, expected](Machine &machine) {
                        return utsResult(machine, *data) == expected;
                    });
            };
            rows.push_back(std::move(row));
        }
    }

    return rows;
}

} // namespace bench
} // namespace spmrt

#endif // SPMRT_BENCH_ROWS_HPP
