/**
 * @file
 * spmrt_perfbench: end-to-end and per-layer benchmark of the simulator
 * served through FleetServer on the paper machine (128 cores).
 *
 *   spmrt_perfbench --workload W --seed N --seconds S --trace 0|1
 *                   [--trace-out FILE]
 *
 * --trace 0 sets up 5 times (median = setup_s), then submits the
 * workload's batch to a FleetServer again and again — a closed batch:
 * submit all, wait for all — until S seconds have passed, and reports the
 * end-to-end metrics. --trace 1 alternates that untraced fleet batch
 * with a traced batch that runs each job's stages directly (Machine
 * build, input upload, runtime build, run, verify, teardown) on the same
 * number of host threads, timing every stage as a span and reading each
 * layer's deterministic counters after the run; it reports the
 * per-layer metrics. Both modes verify every job against a host
 * reference and check that digests, simulated cycles, switch and
 * syncPoint counts repeat exactly across batches and across the two
 * modes.
 *
 * The engine runs its default path: sequential fast scheduler, checker
 * and telemetry not armed, no schedule perturbation, no fault plan.
 *
 * Output: one JSON document (schema spmrt-perfbench-v1) on the last line
 * of stdout; progress and failures go to stderr.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/jobs.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"

using namespace spmrt;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- host ----------------------------------------------------------------

/** Ceiling of a cgroup CPU quota, or 0 when there is none. */
uint32_t
cgroupCpuLimit()
{
    // cgroup v2: "<quota|max> <period>".
    std::ifstream v2("/sys/fs/cgroup/cpu.max");
    std::string quota;
    uint64_t period = 0;
    if (v2 >> quota >> period) {
        if (quota == "max" || period == 0)
            return 0;
        uint64_t q = std::stoull(quota);
        return static_cast<uint32_t>((q + period - 1) / period);
    }
    // cgroup v1: quota -1 means unlimited.
    std::ifstream q1("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    std::ifstream p1("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    long long q = -1, p = 0;
    if (q1 >> q && p1 >> p && q > 0 && p > 0)
        return static_cast<uint32_t>((q + p - 1) / p);
    return 0;
}

/** Cores this process may use: affinity mask capped by the cgroup quota. */
uint32_t
usableHostCores()
{
    uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        cores = static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
    uint32_t quota = cgroupCpuLimit();
    if (quota != 0)
        cores = std::min(cores, quota);
    return cores;
}

/** User + system CPU ms of this process so far. */
double
processCpuMs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](const timeval &tv) {
        return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // Linux reports KiB
}

// ---- statistics ----------------------------------------------------------

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(values.size() - 1, lo + 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

// ---- report --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** What one distinct job must repeat exactly (the determinism contract). */
struct Observed
{
    uint64_t digest = 0;
    uint64_t cycles = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    uint64_t tasks = 0;
    uint64_t instructions = 0;

    bool
    operator==(const Observed &o) const
    {
        return digest == o.digest && cycles == o.cycles &&
               switches == o.switches && syncPoints == o.syncPoints &&
               tasks == o.tasks && instructions == o.instructions;
    }
};

/** First observation per job key; later ones must agree (thread-safe). */
class DeterminismLedger
{
  public:
    void
    record(const JobSpec &job, const Observed &seen, const char *source)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, fresh] = first_.emplace(job.key, seen);
        if (fresh) {
            if (!job.tasks.contains(seen.tasks))
                failLocked(job.key + ": runtime.tasks_executed " +
                           std::to_string(seen.tasks) +
                           " outside its sanity band [" +
                           std::to_string(job.tasks.lo) + ", " +
                           std::to_string(job.tasks.hi) + "]");
            if (!job.instructions.contains(seen.instructions))
                failLocked(job.key + ": sim.instructions " +
                           std::to_string(seen.instructions) +
                           " outside its sanity band [" +
                           std::to_string(job.instructions.lo) + ", " +
                           std::to_string(job.instructions.hi) + "]");
            return;
        }
        if (!(it->second == seen))
            failLocked(log::format(
                "%s: %s run diverged: digest %016llx/%016llx cycles "
                "%llu/%llu switches %llu/%llu sync points %llu/%llu",
                job.key.c_str(), source,
                static_cast<unsigned long long>(it->second.digest),
                static_cast<unsigned long long>(seen.digest),
                static_cast<unsigned long long>(it->second.cycles),
                static_cast<unsigned long long>(seen.cycles),
                static_cast<unsigned long long>(it->second.switches),
                static_cast<unsigned long long>(seen.switches),
                static_cast<unsigned long long>(it->second.syncPoints),
                static_cast<unsigned long long>(seen.syncPoints)));
    }

    void
    fail(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        failLocked(what);
    }

    std::map<std::string, Observed>
    observations() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return first_;
    }

    std::vector<std::string>
    failures() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return failures_;
    }

  private:
    void
    failLocked(const std::string &what)
    {
        std::fprintf(stderr, "FAIL %s\n", what.c_str());
        failures_.push_back(what);
    }

    mutable std::mutex mutex_;
    std::map<std::string, Observed> first_;
    std::vector<std::string> failures_;
};

Observed
countersOf(Machine &machine, uint64_t digest, uint64_t cycles)
{
    Observed o;
    o.digest = digest;
    o.cycles = cycles;
    o.switches = machine.engine().switchCount();
    o.syncPoints = machine.engine().syncPointCount();
    o.tasks = machine.totalStat(&RuntimeStats::tasksExecuted);
    o.instructions = machine.totalInstructions();
    return o;
}

// ---- untraced fleet batches ----------------------------------------------

struct FleetBatch
{
    double wallMs = 0;
    uint64_t submitted = 0;
    uint64_t settled = 0; ///< Ok or CacheHit
    uint64_t cacheHits = 0;
    uint64_t attempts = 0;
    std::vector<double> jobWallMs;            ///< jobs that simulated
    std::map<std::string, double> wallByKey;  ///< same, by job key
};

/**
 * Submit the whole batch, then wait for all of it. After the first
 * batch, primaries bypass the result cache — they simulate again and the
 * server validates digest and cycles against the cached entry — while
 * duplicates are served from the cache or coalesce onto a running
 * primary.
 */
FleetBatch
runFleetBatch(serve::FleetServer &server, const Batch &batch, bool bypass,
              DeterminismLedger &ledger)
{
    struct Seen
    {
        std::mutex mutex;
        std::map<std::string, Observed> byKey;
    };
    auto seen = std::make_shared<Seen>();

    std::vector<serve::FleetServer::JobId> ids;
    Clock::time_point start = Clock::now();
    for (const JobSpec &spec : batch.jobs) {
        serve::JobRequest req;
        req.name = spec.key;
        req.cacheKey = spec.key;
        req.machine = MachineConfig::paper();
        req.staticRuntime = spec.staticRuntime;
        req.armChecker = false;
        req.bypassCache = bypass && !spec.duplicate;
        req.expectedDigest = spec.expectedDigest;
        req.hasExpectedDigest = spec.exactDigest;
        auto upload = spec.upload;
        std::string key = spec.key;
        req.prepare = [upload, key, seen](Machine &machine,
                                          serve::AssetCache &) {
            Instance inst = upload(machine);
            serve::PreparedJob prep;
            prep.root = inst.root;
            auto verify = inst.verify;
            prep.digest = [verify, key, seen](Machine &m) {
                uint64_t digest = verify(m);
                Observed o = countersOf(m, digest, 0);
                std::lock_guard<std::mutex> lock(seen->mutex);
                seen->byKey[key] = o;
                return digest;
            };
            return prep;
        };
        ids.push_back(server.submit(std::move(req)));
    }

    FleetBatch out;
    out.submitted = ids.size();
    std::vector<serve::JobReport> reports;
    for (serve::FleetServer::JobId id : ids)
        reports.push_back(server.wait(id));
    out.wallMs = msBetween(start, Clock::now());

    for (size_t i = 0; i < reports.size(); ++i) {
        const serve::JobReport &r = reports[i];
        const JobSpec &spec = batch.jobs[i];
        out.attempts += r.attempts;
        if (r.status == serve::JobStatus::CacheHit) {
            ++out.settled;
            ++out.cacheHits;
            continue;
        }
        if (r.status != serve::JobStatus::Ok) {
            ledger.fail(log::format("%s: job settled '%s': %s",
                                    spec.key.c_str(),
                                    serve::jobStatusName(r.status),
                                    r.error.c_str()));
            continue;
        }
        ++out.settled;
        out.jobWallMs.push_back(r.wallMs);
        out.wallByKey[spec.key] = r.wallMs;
        Observed o;
        {
            std::lock_guard<std::mutex> lock(seen->mutex);
            o = seen->byKey.at(spec.key);
        }
        o.cycles = r.cycles;
        if (o.digest != r.digest)
            ledger.fail(spec.key + ": report digest differs from the "
                                   "digest the job computed");
        ledger.record(spec, o, "fleet");
    }
    return out;
}

// ---- traced direct batches -----------------------------------------------

/** One timed stage of one job (Chrome-trace complete event). */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a job's root span
    uint64_t job = 0;
    double startUs = 0;
    double endUs = 0;
    uint32_t thread = 0;

    double ms() const { return (endUs - startUs) / 1e3; }
};

/** Deterministic per-layer counters of one traced job. */
struct LayerCounts
{
    uint64_t switches = 0, syncPoints = 0, instructions = 0;
    uint64_t localSpm = 0, remoteSpm = 0, dram = 0, amos = 0;
    uint64_t nocPackets = 0, nocLinkCycles = 0, nocLinkWait = 0;
    uint64_t llcHits = 0, llcMisses = 0, llcBankWait = 0;
    uint64_t dramTransfers = 0, dramBytes = 0;
    uint64_t tasksSpawned = 0, tasksExecuted = 0;
    uint64_t stealAttempts = 0, stealHits = 0;
    uint64_t spawnsInlined = 0, stackOverflowFrames = 0;
};

LayerCounts
readLayerCounts(Machine &machine)
{
    LayerCounts c;
    c.switches = machine.engine().switchCount();
    c.syncPoints = machine.engine().syncPointCount();
    c.instructions = machine.totalInstructions();
    MemorySystem &mem = machine.mem();
    const MemStats &ms = mem.stats();
    c.localSpm = ms.localSpmLoads + ms.localSpmStores;
    c.remoteSpm = ms.remoteSpmLoads + ms.remoteSpmStores;
    c.dram = ms.dramLoads + ms.dramStores;
    c.amos = ms.amos;
    c.nocPackets = mem.noc().packetsRouted();
    c.nocLinkCycles = mem.noc().linkCyclesUsed();
    for (uint64_t w : mem.noc().linkWaitCycles())
        c.nocLinkWait += w;
    c.llcHits = mem.llc().hits();
    c.llcMisses = mem.llc().misses();
    for (uint64_t w : mem.llc().bankWaitCycles())
        c.llcBankWait += w;
    c.dramTransfers = mem.dram().transfers();
    c.dramBytes = mem.dram().bytesMoved();
    c.tasksSpawned = machine.totalStat(&RuntimeStats::tasksSpawned);
    c.tasksExecuted = machine.totalStat(&RuntimeStats::tasksExecuted);
    c.stealAttempts = machine.totalStat(&RuntimeStats::stealAttempts);
    c.stealHits = machine.totalStat(&RuntimeStats::stealHits);
    c.spawnsInlined = machine.totalStat(&RuntimeStats::spawnsInlined);
    c.stackOverflowFrames =
        machine.totalStat(&RuntimeStats::stackFramesOverflowed);
    return c;
}

constexpr const char *kStages[] = {"machine_build", "input_build",
                                   "runtime_build", "run",
                                   "verify",        "machine_teardown"};
constexpr size_t kNumStages = sizeof(kStages) / sizeof(kStages[0]);

struct TracedJob
{
    std::string key;
    bool ok = false;                    ///< ran and matched its reference
    double wallMs = 0;                  ///< root span
    double stageMs[kNumStages] = {};    ///< child spans
    LayerCounts counts;
};

/** Field-wise sum of the counts of @p jobs. */
LayerCounts
sumCounts(const std::vector<TracedJob> &jobs)
{
    using C = LayerCounts;
    static constexpr uint64_t C::*kFields[] = {
        &C::switches,      &C::syncPoints,    &C::instructions,
        &C::localSpm,      &C::remoteSpm,     &C::dram,
        &C::amos,          &C::nocPackets,    &C::nocLinkCycles,
        &C::nocLinkWait,   &C::llcHits,       &C::llcMisses,
        &C::llcBankWait,   &C::dramTransfers, &C::dramBytes,
        &C::tasksSpawned,  &C::tasksExecuted, &C::stealAttempts,
        &C::stealHits,     &C::spawnsInlined, &C::stackOverflowFrames};
    static_assert(sizeof(kFields) / sizeof(kFields[0]) ==
                      sizeof(C) / sizeof(uint64_t),
                  "every LayerCounts field is summed");
    LayerCounts sum;
    for (const TracedJob &j : jobs)
        for (uint64_t C::*field : kFields)
            sum.*field += j.counts.*field;
    return sum;
}

/**
 * Spans are only ever appended to in-memory vectors — one per thread, so
 * recording takes no lock — and written out when the benchmark ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(uint32_t threads) : perThread_(threads) {}

    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    void
    add(uint32_t thread, const Span &span)
    {
        perThread_[thread].push_back(span);
    }

    /** Chrome trace-event JSON of every span. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[";
        bool first = true;
        for (const auto &spans : perThread_) {
            for (const Span &s : spans) {
                out << (first ? "\n" : ",\n");
                first = false;
                out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\","
                    << "\"pid\":1,\"tid\":" << s.thread
                    << ",\"ts\":" << jsonNumber(s.startUs)
                    << ",\"dur\":" << jsonNumber(s.endUs - s.startUs)
                    << ",\"args\":{\"span\":" << s.id
                    << ",\"parent\":" << s.parent << ",\"job\":" << s.job
                    << "}}";
            }
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::atomic<uint64_t> nextId_{0};
    std::vector<std::vector<Span>> perThread_;
};

/** Run one job's stages directly, each timed as a child span. */
TracedJob
runTracedJob(const JobSpec &spec, uint64_t job_id, uint32_t thread,
             SpanLog &spans, DeterminismLedger &ledger)
{
    TracedJob out;
    out.key = spec.key;
    Span root{"job", spans.nextId(), 0, job_id, 0, 0, thread};
    Clock::time_point t[kNumStages + 1];

    t[0] = Clock::now();
    auto machine = std::make_unique<Machine>(MachineConfig::paper());
    t[1] = Clock::now();
    Instance inst = spec.upload(*machine);
    t[2] = Clock::now();
    std::unique_ptr<WorkStealingRuntime> ws;
    std::unique_ptr<StaticRuntime> st;
    const RuntimeConfig rt_cfg;
    if (spec.staticRuntime)
        st = std::make_unique<StaticRuntime>(*machine, rt_cfg);
    else
        ws = std::make_unique<WorkStealingRuntime>(*machine, rt_cfg);
    t[3] = Clock::now();
    Cycles cycles = st ? st->run(inst.root) : ws->run(inst.root);
    t[4] = Clock::now();
    uint64_t digest = 0;
    try {
        digest = inst.verify(*machine);
        if (spec.exactDigest && digest != spec.expectedDigest)
            throw std::runtime_error(log::format(
                "digest %016llx, host reference %016llx",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(spec.expectedDigest)));
        out.ok = true;
    } catch (const std::exception &error) {
        ledger.fail(spec.key + ": traced run: " + error.what());
    }
    t[5] = Clock::now();
    // Counter reads are benchmark work, not a program stage: they fall
    // in the job span's uncovered remainder.
    out.counts = readLayerCounts(*machine);
    ledger.record(spec,
                  Observed{digest, cycles, out.counts.switches,
                           out.counts.syncPoints, out.counts.tasksExecuted,
                           out.counts.instructions},
                  "traced");
    Clock::time_point teardown = Clock::now();
    st.reset();
    ws.reset();
    machine.reset();
    t[6] = Clock::now();

    Clock::time_point stage_start[kNumStages] = {t[0], t[1], t[2],
                                                 t[3], t[4], teardown};
    for (size_t s = 0; s < kNumStages; ++s) {
        Span span{kStages[s], spans.nextId(), root.id, job_id,
                  spans.us(stage_start[s]), spans.us(t[s + 1]), thread};
        out.stageMs[s] = span.ms();
        spans.add(thread, span);
    }
    root.startUs = spans.us(t[0]);
    root.endUs = spans.us(t[6]);
    out.wallMs = root.ms();
    spans.add(thread, root);

    // Stated remainder: counter reads and stage glue stay within
    // 1 ms + 2% of the job's direct-run wall.
    double phase_sum = 0;
    for (double ms : out.stageMs)
        phase_sum += ms;
    if (out.wallMs - phase_sum > 1.0 + 0.02 * out.wallMs)
        ledger.fail(log::format("%s: phase spans leave %.3f ms of %.3f ms "
                                "uncovered",
                                spec.key.c_str(), out.wallMs - phase_sum,
                                out.wallMs));
    return out;
}

/** The batch's distinct jobs, run directly on @p workers threads. */
std::vector<TracedJob>
runTracedBatch(const Batch &batch, uint32_t workers, SpanLog &spans,
               uint64_t &next_job_id, double &wall_ms,
               DeterminismLedger &ledger)
{
    std::vector<const JobSpec *> distinct;
    for (const JobSpec &spec : batch.jobs)
        if (!spec.duplicate)
            distinct.push_back(&spec);
    std::vector<TracedJob> out(distinct.size());
    std::atomic<size_t> next{0};
    const uint64_t base_id = next_job_id;
    next_job_id += distinct.size();

    Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            for (size_t i = next.fetch_add(1); i < distinct.size();
                 i = next.fetch_add(1)) {
                try {
                    out[i] = runTracedJob(*distinct[i], base_id + i, w,
                                          spans, ledger);
                } catch (const std::exception &error) {
                    out[i].key = distinct[i]->key;
                    out[i].ok = false;
                    ledger.fail(distinct[i]->key + ": traced run threw: " +
                                error.what());
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    wall_ms = msBetween(start, Clock::now());
    return out;
}

// ---- driver --------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "spmrt_perfbench: %s\n"
                 "usage: spmrt_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "workloads:",
                 why.c_str());
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (arg == "--trace-out")
                opt.traceOut = value;
            else
                usage("unknown option " + arg);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  opt.workload) == workloadNames().end())
        usage("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    return opt;
}

struct Setup
{
    std::unique_ptr<serve::FleetServer> server;
    Batch batch;
    double seconds = 0;
};

/** Server start + shared input generation + host reference digests. */
Setup
setUp(const Options &opt, uint32_t workers)
{
    Setup s;
    Clock::time_point start = Clock::now();
    serve::FleetConfig cfg;
    cfg.workers = workers;
    s.server = std::make_unique<serve::FleetServer>(cfg);
    s.batch = buildBatch(opt.workload, opt.seed);
    s.seconds = msBetween(start, Clock::now()) / 1e3;
    return s;
}

/** Everything one run measured. */
struct RunData
{
    uint32_t hostCores = 0;
    uint32_t workers = 0;
    std::vector<double> setupS;
    double cpuMs = 0; ///< over the timed batches
    std::vector<FleetBatch> fleet;
    std::vector<std::vector<TracedJob>> traced; ///< one per fleet batch
    std::vector<double> tracedWallMs;
};

/** Sums over the timed fleet batches. */
struct FleetTotals
{
    uint64_t submitted = 0, settled = 0, cacheHits = 0, attempts = 0;
    double wallMs = 0;
    std::vector<double> jobMs; ///< jobs that simulated
    std::vector<double> batchJobsPerS;
};

FleetTotals
sumFleet(const std::vector<FleetBatch> &fleet)
{
    FleetTotals t;
    for (const FleetBatch &b : fleet) {
        t.submitted += b.submitted;
        t.settled += b.settled;
        t.cacheHits += b.cacheHits;
        t.attempts += b.attempts;
        t.wallMs += b.wallMs;
        t.jobMs.insert(t.jobMs.end(), b.jobWallMs.begin(), b.jobWallMs.end());
        t.batchJobsPerS.push_back(b.settled / (b.wallMs / 1e3));
    }
    return t;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::vector<Metric>
endToEndMetrics(const RunData &run, const Batch &batch,
                const std::map<std::string, Observed> &observed)
{
    const FleetTotals t = sumFleet(run.fleet);
    std::vector<double> cycles;
    for (const auto &[key, o] : observed)
        cycles.push_back(static_cast<double>(o.cycles));
    return {
        {"jobs_per_s", median(t.batchJobsPerS), "1/s", run.fleet.size()},
        {"job_ms_p50", median(t.jobMs), "ms", t.jobMs.size()},
        {"job_ms_tail", percentile(t.jobMs, batch.tailPercentile), "ms",
         t.jobMs.size()},
        {"cpu_ms_per_job", run.cpuMs / std::max<uint64_t>(1, t.settled),
         "ms", t.settled},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"setup_s", median(run.setupS), "s", run.setupS.size()},
        {"sim_cycles", cycles.empty() ? 0 : geomean(cycles), "cycles",
         cycles.size()},
        {"error_rate",
         ratio(static_cast<double>(t.submitted - t.settled),
               static_cast<double>(t.submitted)),
         "ratio", t.submitted},
    };
}

/**
 * Stage times are per-job means over every traced job; counts are totals
 * over one batch's distinct jobs (identical in every batch).
 */
std::vector<Metric>
perLayerMetrics(const RunData &run, const Batch &batch)
{
    const FleetTotals t = sumFleet(run.fleet);
    const uint64_t batches = run.fleet.size();
    double stage_ms[kNumStages] = {};
    double uncovered_max = 0;
    uint64_t jobs = 0;
    std::vector<double> overhead_ms;
    for (size_t b = 0; b < run.traced.size(); ++b) {
        for (const TracedJob &j : run.traced[b]) {
            double phase_sum = 0;
            for (size_t s = 0; s < kNumStages; ++s) {
                stage_ms[s] += j.stageMs[s];
                phase_sum += j.stageMs[s];
            }
            ++jobs;
            uncovered_max = std::max(uncovered_max, j.wallMs - phase_sum);
            auto server_wall = run.fleet[b].wallByKey.find(j.key);
            if (server_wall != run.fleet[b].wallByKey.end())
                overhead_ms.push_back(server_wall->second - phase_sum);
        }
    }
    const double n = static_cast<double>(std::max<uint64_t>(1, jobs));
    auto stage = [&](const char *name) {
        for (size_t s = 0; s < kNumStages; ++s)
            if (std::strcmp(kStages[s], name) == 0)
                return stage_ms[s] / n;
        throw std::logic_error(name);
    };
    const uint64_t distinct = run.traced.empty() ? 0 : run.traced[0].size();
    const LayerCounts c =
        run.traced.empty() ? LayerCounts{} : sumCounts(run.traced[0]);
    // Host ns of one batch's run stages.
    const double run_ns = stage("run") * n * 1e6 /
                          std::max<double>(1, run.traced.size());
    double busy_ms = 0;
    for (double v : t.jobMs)
        busy_ms += v;
    double traced_wall_ms = 0;
    for (double w : run.tracedWallMs)
        traced_wall_ms += w;

    return {
        {"host_cores", static_cast<double>(run.hostCores), "count", 1},
        {"sim.machine_build_ms", stage("machine_build"), "ms", jobs},
        {"sim.machine_teardown_ms", stage("machine_teardown"), "ms", jobs},
        {"sim.run_ms", stage("run"), "ms", jobs},
        {"sim.switches", double(c.switches), "count", distinct},
        {"sim.sync_points", double(c.syncPoints), "count", distinct},
        {"sim.instructions", double(c.instructions), "count", distinct},
        {"sim.host_ns_per_switch", ratio(run_ns, c.switches), "ns", jobs},
        {"sim.host_ns_per_op", ratio(run_ns, c.instructions), "ns", jobs},
        {"mem.local_spm_ops", double(c.localSpm), "count", distinct},
        {"mem.remote_spm_ops", double(c.remoteSpm), "count", distinct},
        {"mem.dram_ops", double(c.dram), "count", distinct},
        {"mem.amos", double(c.amos), "count", distinct},
        {"mem.noc_packets", double(c.nocPackets), "count", distinct},
        {"mem.noc_link_cycles", double(c.nocLinkCycles), "cycles",
         distinct},
        {"mem.noc_link_wait_cycles", double(c.nocLinkWait), "cycles",
         distinct},
        {"mem.llc_hits", double(c.llcHits), "count", distinct},
        {"mem.llc_misses", double(c.llcMisses), "count", distinct},
        {"mem.llc_hit_ratio",
         ratio(c.llcHits, c.llcHits + c.llcMisses), "ratio",
         distinct},
        {"mem.llc_bank_wait_cycles", double(c.llcBankWait), "cycles",
         distinct},
        {"mem.dram_transfers", double(c.dramTransfers), "count", distinct},
        {"mem.dram_bytes", double(c.dramBytes), "bytes", distinct},
        {"runtime.build_ms", stage("runtime_build"), "ms", jobs},
        {"runtime.tasks_spawned", double(c.tasksSpawned), "count",
         distinct},
        {"runtime.tasks_executed", double(c.tasksExecuted), "count",
         distinct},
        {"runtime.steal_attempts", double(c.stealAttempts), "count",
         distinct},
        {"runtime.steal_hits", double(c.stealHits), "count", distinct},
        {"runtime.steal_hit_ratio", ratio(c.stealHits, c.stealAttempts),
         "ratio", distinct},
        {"runtime.spawns_inlined", double(c.spawnsInlined), "count",
         distinct},
        {"runtime.stack_overflow_frames", double(c.stackOverflowFrames),
         "count", distinct},
        {"workloads.input_gen_ms", batch.inputGenMs, "ms", 1},
        {"workloads.input_build_ms", stage("input_build"), "ms", jobs},
        {"workloads.verify_ms", stage("verify"), "ms", jobs},
        {"serve.job_overhead_ms", mean(overhead_ms), "ms",
         overhead_ms.size()},
        {"serve.attempts", ratio(t.attempts, batches), "count", batches},
        {"serve.retries",
         ratio(static_cast<double>(t.attempts - (t.settled - t.cacheHits)),
               batches),
         "count", batches},
        {"serve.cache_hits", ratio(t.cacheHits, batches), "count", batches},
        {"serve.worker_busy_frac", ratio(busy_ms, run.workers * t.wallMs),
         "ratio", batches},
        {"trace.overhead_ms", ratio(traced_wall_ms - t.wallMs, batches),
         "ms", batches},
        {"trace.uncovered_ms_max", uncovered_max, "ms", jobs},
    };
}

/** The spmrt-perfbench-v1 report document (one line). */
std::string
reportJson(const Options &opt, const RunData &run, const Batch &batch,
           const std::vector<Metric> &metrics,
           const std::map<std::string, Observed> &observed,
           const std::vector<std::string> &failures)
{
    const FleetTotals t = sumFleet(run.fleet);
    uint64_t traced_jobs = 0, traced_failed = 0;
    for (const auto &round : run.traced) {
        traced_jobs += round.size();
        for (const TracedJob &j : round)
            traced_failed += j.ok ? 0 : 1;
    }
    std::ostringstream out;
    out << "{\"schema\":\"spmrt-perfbench-v1\",\"workload\":\""
        << jsonEscape(opt.workload) << "\",\"seed\":" << opt.seed
        << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"host_cores\":" << run.hostCores
        << ",\"workers\":" << run.workers
        << ",\"batches\":" << run.fleet.size()
        << ",\"jobs_per_batch\":" << batch.jobs.size()
        << ",\"submitted\":" << t.submitted + traced_jobs
        << ",\"failed\":" << (t.submitted - t.settled) + traced_failed
        << ",\"tail_percentile\":" << jsonNumber(batch.tailPercentile)
        << ",\"tail_samples_beyond\":"
        << jsonNumber(t.jobMs.size() * (1.0 - batch.tailPercentile / 100.0))
        << ",\"batch_wall_ms\":[";
    for (size_t b = 0; b < run.fleet.size(); ++b)
        out << (b ? "," : "") << jsonNumber(run.fleet[b].wallMs);
    out << "],\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
            << jsonNumber(m.value) << ",\"unit\":\"" << m.unit
            << "\",\"samples\":" << m.samples << "}";
    }
    out << "},\"jobs\":[";
    size_t i = 0;
    for (const auto &[key, o] : observed) {
        out << (i++ ? "," : "") << "{\"key\":\"" << jsonEscape(key)
            << "\",\"digest\":\""
            << log::format("%016llx",
                           static_cast<unsigned long long>(o.digest))
            << "\",\"cycles\":" << o.cycles << ",\"switches\":" << o.switches
            << ",\"sync_points\":" << o.syncPoints
            << ",\"tasks_executed\":" << o.tasks
            << ",\"instructions\":" << o.instructions << "}";
    }
    out << "],\"failures\":[";
    for (size_t f = 0; f < failures.size(); ++f)
        out << (f ? "," : "") << "\"" << jsonEscape(failures[f]) << "\"";
    out << "]}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    RunData run;
    run.hostCores = usableHostCores();
    run.workers = std::min<uint32_t>(run.hostCores, 4);

    // Set up several times; keep the last set-up, report the median.
    constexpr uint32_t kSetupReps = 5;
    Setup setup;
    for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
        setup = Setup{};
        setup = setUp(opt, run.workers);
        run.setupS.push_back(setup.seconds);
    }
    const Batch &batch = setup.batch;
    serve::FleetServer &server = *setup.server;
    std::fprintf(stderr,
                 "perfbench: %s seed %llu, %zu jobs per batch, %u fleet "
                 "workers (%u usable host cores), trace %d\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 batch.jobs.size(), run.workers, run.hostCores,
                 opt.trace ? 1 : 0);

    DeterminismLedger ledger;
    SpanLog span_log(run.workers);
    uint64_t next_traced_id = 1;

    // One untimed warm-up batch fills the result cache and lets lazy
    // process set-up finish, so every timed batch does the same work.
    runFleetBatch(server, batch, false, ledger);

    const double cpu_start = processCpuMs();
    Clock::time_point start = Clock::now();
    do {
        run.fleet.push_back(runFleetBatch(server, batch, true, ledger));
        if (opt.trace) {
            double wall = 0;
            run.traced.push_back(runTracedBatch(batch, run.workers, span_log,
                                                next_traced_id, wall,
                                                ledger));
            run.tracedWallMs.push_back(wall);
        }
    } while (msBetween(start, Clock::now()) < opt.seconds * 1e3);
    run.cpuMs = processCpuMs() - cpu_start;
    server.shutdown(true);

    const std::map<std::string, Observed> observed = ledger.observations();
    const std::vector<Metric> metrics =
        opt.trace ? perLayerMetrics(run, batch)
                  : endToEndMetrics(run, batch, observed);
    if (opt.trace && !opt.traceOut.empty() && !span_log.write(opt.traceOut))
        ledger.fail("cannot write spans to " + opt.traceOut);

    const std::vector<std::string> failures = ledger.failures();
    std::printf("%s\n", reportJson(opt, run, batch, metrics, observed,
                                   failures)
                            .c_str());
    return failures.empty() ? 0 : 1;
}
