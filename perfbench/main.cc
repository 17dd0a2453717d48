/**
 * @file
 * perfbench: one measuring process of the repository benchmark.
 *
 *   perfbench --workload compile|campaign|serve --seed N --seconds S
 *             --trace 0|1 [--held-out] [--part K]
 *
 * Sets the workload up several times (setup_s is the median), then
 * issues whole blocks of ops until S seconds have passed (the last
 * block may run past S), clearing the evaluation cache before every
 * op so each op models one independent command invocation. With
 * --trace 0 it reports this process's end-to-end metrics; with
 * --trace 1 it records spans around every library call instead and
 * reports the per-layer metrics.
 *
 * The last line of stdout is one JSON object: the result keys
 * ("correct", "attempted", "failed", "metrics") plus "op_ms", every
 * op latency, and "digest", the output digest of the first block.
 * run.py merges several such processes into the benchmark's result.
 *
 * Files written to the working directory: digests.txt (one output
 * digest per op) and, when traced, spans.json.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "sched/eval_cache.hh"
#include "util/thread_pool.hh"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPUs this process may run on (what nproc prints). */
unsigned
nprocJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Thread-pool observer counting tasks, busy time and fan-outs. */
class PoolCounters : public rana::ThreadPool::Telemetry
{
  public:
    void onTaskQueued(std::size_t depth) override
    {
        std::size_t seen = maxDepth.load(std::memory_order_relaxed);
        while (depth > seen &&
               !maxDepth.compare_exchange_weak(seen, depth,
                                               std::memory_order_relaxed)) {
        }
    }
    void onTaskCompleted(double seconds) override
    {
        tasks.fetch_add(1, std::memory_order_relaxed);
        busyNs.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
    }
    void onParallelFor(std::size_t) override
    {
        parallelFors.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busyNs{0};
    std::atomic<std::uint64_t> parallelFors{0};
    std::atomic<std::size_t> maxDepth{0};
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--held-out") {
            args.stream = SeedStream::HeldOut;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
            if (!have_seed)
                return false;
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(args.seconds > 0.0 && args.seconds <= 600.0))
                return false;
        } else if (arg == "--part") {
            const unsigned long part = std::strtoul(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || part > 1000)
                return false;
            args.part = static_cast<std::uint32_t>(part);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else {
            return false;
        }
    }
    return have_workload && have_seed;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Cost of recording one span, measured on a scratch tracer. */
double
spanCostSeconds()
{
    constexpr int kSpans = 20000;
    Tracer scratch(true);
    const auto start = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        scratch.end(scratch.begin("probe", 0, -1));
    return secondsSince(start) / kSpans;
}

std::string
hex(std::uint64_t value)
{
    char text[20];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

/** Per-layer metrics of a traced run. */
std::vector<Metric>
layerMetrics(const Run &run, std::uint64_t ops, double timed_seconds,
             const PoolCounters &pool)
{
    const Attribution where = attribute(run.tracer.spans());
    const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
    auto sum = [&](const std::string &key) {
        const auto it = run.sums.find(key);
        return it == run.sums.end() ? 0.0 : it->second;
    };
    auto layer_ms = [&](const std::string &name) {
        const auto it = where.layers.find(name);
        return it == where.layers.end()
                   ? 0.0
                   : it->second.totalSeconds * 1e3 * per_op;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto share = [&](const std::string &module) {
        double self = 0.0;
        for (const auto &[name, time] : where.layers) {
            if (name.compare(0, module.size() + 1, module + ".") == 0)
                self += time.selfSeconds;
        }
        return ratio(self, where.opSeconds);
    };
    double prepare_ms = 0.0, prepares = 0.0;
    for (const Span &span : run.tracer.spans()) {
        if (span.name == "serving.prepare") {
            prepare_ms += (span.end - span.start) * 1e3;
            prepares += 1.0;
        }
    }
    double trials_seconds = 0.0;
    if (const auto it = where.layers.find("robust.trials");
        it != where.layers.end())
        trials_seconds = it->second.totalSeconds;
    const double requests = sum("serving.requests");
    const double ops_d = static_cast<double>(ops);

    return {
        {"sched.schedule_ms", layer_ms("sched.schedule"), "ms"},
        {"sched.evaluations", sum("sched.evaluations") * per_op, "count"},
        {"sched.eval_cache_hit_ratio",
         ratio(sum("sched.cache_hits"), sum("sched.cache_lookups")),
         "ratio"},
        {"sched.self_share", share("sched"), "ratio"},
        {"sim.execute_ms", layer_ms("sim.execute"), "ms"},
        {"sim.exposures_ms", layer_ms("sim.exposures"), "ms"},
        {"sim.refresh_ops", sum("sim.refresh_ops") * per_op, "count"},
        {"sim.model_seconds", sum("sim.model_seconds") * per_op, "s"},
        {"sim.violations", sum("sim.violations"), "count"},
        {"sim.self_share", share("sim"), "ratio"},
        {"edram.guard_trips", sum("edram.guard_trips") * per_op, "count"},
        {"config_io.roundtrip_ms", layer_ms("config_io.roundtrip"), "ms"},
        {"config_io.self_share", share("config_io"), "ratio"},
        {"train.dataset_ms", layer_ms("train.dataset"), "ms"},
        {"train.pretrain_ms", layer_ms("train.pretrain"), "ms"},
        {"train.retrain_ms", layer_ms("train.retrain"), "ms"},
        {"train.baseline_accuracy", sum("train.baseline_accuracy") * per_op,
         "ratio"},
        {"train.self_share", share("train"), "ratio"},
        {"robust.trials_ms", layer_ms("robust.trials"), "ms"},
        {"robust.trials_per_s", ratio(sum("robust.trials"), trials_seconds),
         "1/s"},
        {"robust.exposed_words", ratio(sum("robust.exposed_words"),
                                       sum("robust.trials")),
         "count"},
        {"robust.self_share", share("robust"), "ratio"},
        {"serving.prepare_ms", ratio(prepare_ms, prepares), "ms"},
        {"serving.replay_ms", layer_ms("serving.replay"), "ms"},
        {"serving.host_us_per_request",
         ratio(sum("serving.replay_s") * 1e6, requests), "us"},
        {"serving.requests", requests * per_op, "count"},
        {"serving.lanes_per_batch", ratio(requests, sum("serving.batches")),
         "count"},
        {"serving.shed_ratio",
         ratio(sum("serving.shed"), sum("serving.issued")), "ratio"},
        {"serving.worst_p99_ms", sum("serving.worst_p99_ms") * per_op, "ms"},
        {"serving.throughput_rps", sum("serving.throughput_rps") * per_op,
         "1/s"},
        {"serving.self_share", share("serving"), "ratio"},
        {"util.pool.tasks", static_cast<double>(pool.tasks) * per_op,
         "count"},
        {"util.pool.busy_ms", static_cast<double>(pool.busyNs) * 1e-6 * per_op,
         "ms"},
        {"util.pool.parallel_fors",
         static_cast<double>(pool.parallelFors) * per_op, "count"},
        {"util.pool.max_queue_depth", static_cast<double>(pool.maxDepth),
         "count"},
        {"trace.unattributed_ms", where.unattributedSeconds * 1e3 * per_op,
         "ms"},
        {"trace.unattributed_share",
         ratio(where.unattributedSeconds, where.opSeconds), "ratio"},
        {"trace.ops_per_s", ratio(ops_d, timed_seconds), "1/s"},
        {"trace.overhead_share",
         ratio(static_cast<double>(run.tracer.spans().size()) *
                   spanCostSeconds(),
               timed_seconds),
         "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload compile|campaign|serve "
                     "--seed N --seconds S --trace 0|1 [--held-out] "
                     "[--part K]\n";
        return 2;
    }
    std::unique_ptr<Workload> workload;
    if (args.workload == "compile")
        workload = makeCompileWorkload();
    else if (args.workload == "campaign")
        workload = makeCampaignWorkload();
    else if (args.workload == "serve")
        workload = makeServeWorkload();
    if (!workload) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    Run run(args, nprocJobs());
    std::vector<double> setup_seconds;
    for (unsigned r = 0; r < workload->setupRepeats(); ++r) {
        const auto start = Clock::now();
        workload->setup(run);
        setup_seconds.push_back(secondsSince(start));
    }

    // Leaked: pool threads may still report after main returns.
    auto *pool = new PoolCounters();
    if (args.trace)
        rana::ThreadPool::setTelemetry(pool);
    std::vector<double> op_ms;
    std::uint64_t completed = 0;
    const auto timed_start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
        if (i > 0 && i % workload->blockSize() == 0 &&
            secondsSince(timed_start) >= args.seconds)
            break;
        rana::EvalCache::global().clear();
        const auto start = Clock::now();
        std::string failure;
        {
            ScopedSpan op(run.tracer, "op", args.opIndex(i));
            failure = workload->runOp(run, i, op.index());
        }
        op_ms.push_back(secondsSince(start) * 1e3);
        run.tally.record(failure.empty(), "op " +
                                              std::to_string(args.opIndex(i)) +
                                              ": " + failure);
        completed += failure.empty() ? 1 : 0;
    }
    const double timed_seconds = secondsSince(timed_start);
    rana::ThreadPool::setTelemetry(nullptr);
    const std::uint64_t ops = op_ms.size();

    workload->finish(run);
    std::uint64_t ratio_digest = 0;
    const double energy_ratio = modelEnergyRatio(run.jobs, ratio_digest);
    if (!(energy_ratio > 0.0))
        run.tally.failCheck("model_energy_ratio check set failed");

    std::uint64_t all_digest = fnv1a("");
    std::uint64_t prefix_digest = 0;
    {
        std::ofstream out("digests.txt");
        for (std::size_t i = 0; i < run.digests.size(); ++i) {
            const std::string digest = hex(run.digests[i]);
            all_digest = fnv1a(digest, all_digest);
            if (i + 1 == workload->blockSize())
                prefix_digest = all_digest;
            out << run.digestLines[i] << " " << digest << "\n";
        }
        out << "model_energy_ratio " << hex(ratio_digest) << "\n";
    }
    if (args.trace) {
        std::ofstream out("spans.json");
        out << run.tracer.json();
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = layerMetrics(run, ops, timed_seconds, *pool);
    } else {
        metrics = {
            {"setup_s", median(setup_seconds), "s"},
            {"ops_per_s", static_cast<double>(completed) / timed_seconds,
             "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"model_energy_ratio", energy_ratio, "ratio"},
        };
    }

    std::cout << "# workload " << args.workload << " seed " << args.seed
              << " part " << args.part
              << (args.stream == SeedStream::HeldOut ? " (held-out)" : "")
              << ", " << run.jobs << " jobs, " << ops << " ops in "
              << timed_seconds << " s, " << run.tally.failed() << " failed\n";
    for (const std::string &reason : run.tally.reasons())
        std::cout << "# FAILED " << reason << "\n";
    std::cout << "# digest first " << workload->blockSize() << " ops "
              << hex(prefix_digest) << ", all " << run.digests.size()
              << " ops " << hex(all_digest) << ", check set "
              << hex(ratio_digest) << "\n";
    for (const Metric &metric : metrics) {
        std::cout << "# " << metric.name << " = " << exact(metric.value)
                  << " " << metric.unit << "\n";
    }

    std::cout << "{\"correct\": "
              << (run.tally.correct() ? "true" : "false")
              << ", \"attempted\": " << run.tally.attempted()
              << ", \"failed\": " << run.tally.failed()
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << exact(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}, \"op_ms\": [";
    for (std::size_t i = 0; i < op_ms.size(); ++i)
        std::cout << (i ? ", " : "") << exact(op_ms[i]);
    std::cout << "], \"digest\": \"" << hex(prefix_digest) << "\"}"
              << std::endl;
    return 0;
}
