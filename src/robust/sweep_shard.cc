/**
 * @file
 * Implementation of the crash-tolerant sharded sweep engine.
 */

#include "robust/sweep_shard.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics_registry.hh"
#include "obs/telemetry.hh"
#include "util/json_fields.hh"
#include "util/logging.hh"
#include "util/subprocess.hh"
#include "util/thread_pool.hh"

namespace rana {

namespace {

/** Trace track ids: the coordinator plus one track per worker. */
constexpr int kCoordinatorTrack = 1000;

/** Worker ordinal -> its Chrome-trace thread track. */
int
workerTrack(unsigned ordinal)
{
    return kCoordinatorTrack + 1 + static_cast<int>(ordinal);
}

/**
 * Worker ordinal -> the process ids its exported trace events merge
 * under. Each worker owns a (host, simulated) pid pair well clear of
 * the coordinator's kHostPid/kSimPid, so the merged trace shows one
 * named process group per worker.
 */
int
workerHostPid(unsigned ordinal)
{
    return 100 + 2 * static_cast<int>(ordinal);
}

int
workerSimPid(unsigned ordinal)
{
    return workerHostPid(ordinal) + 1;
}

/** Milliseconds since an arbitrary steady epoch. */
std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --------------------------------------------------------------------
// The worker body (runs in the forked child).
// --------------------------------------------------------------------

/** The child never returns to main; exit codes are diagnostics. */
constexpr int kWorkerExitOk = 0;
constexpr int kWorkerExitPipe = 10;
constexpr int kWorkerExitChaosKill = 11;

/**
 * Flip payload bytes of an encoded frame *after* its checksum was
 * computed, so the coordinator's checksum verification is the path
 * that catches the corruption.
 */
void
corruptEncodedFrame(std::string &bytes)
{
    const std::size_t header = frameHeaderSize();
    const std::size_t limit =
        std::min(bytes.size(), header + std::size_t{8});
    for (std::size_t i = header; i < limit; ++i)
        bytes[i] = static_cast<char>(bytes[i] ^ 0x5A);
}

int
workerBody(const PreparedSweep &plan, const ShardChaosConfig &chaos,
           unsigned ordinal, bool chaosArmed, int requestFd,
           int responseFd)
{
    // The forked child inherits the parent's registry contents,
    // trace buffer and flight ring copy-on-write. Reset/baseline
    // them so every telemetry export carries only this incarnation's
    // own activity, never a copy of the coordinator's.
    MetricsRegistry &registry = MetricsRegistry::global();
    TraceRecorder &recorder = TraceRecorder::global();
    FlightRecorder &flight = FlightRecorder::global();
    registry.reset();
    flight.reset();
    std::size_t traceBase = recorder.eventCount();
    std::uint64_t telemetrySeq = 0;

    MetricsRegistry::Counter &cellsDone =
        registry.counter("worker_cells_completed_total");
    MetricsRegistry::Counter &cleanExits =
        registry.counter("worker_clean_exits_total");

    // One telemetry frame: cumulative metrics, the full flight ring
    // (so the last frame before an abrupt death still carries it)
    // and the trace events recorded since the previous export.
    const auto sendTelemetry = [&](bool finalFrame) {
        WorkerTelemetry telemetry;
        telemetry.worker = ordinal;
        telemetry.seq = telemetrySeq;
        telemetry.finalFrame = finalFrame;
        telemetry.metrics = registry.snapshot();
        telemetry.flight = flight.snapshot();
        telemetry.trace = recorder.eventsFrom(traceBase);
        Frame frame;
        frame.type = FrameType::Telemetry;
        frame.cell = ordinal;
        frame.attempt = static_cast<std::uint32_t>(telemetrySeq);
        frame.payload = serializeWorkerTelemetry(telemetry);
        if (!writeFrameBlocking(responseFd, frame))
            return false;
        traceBase += telemetry.trace.size();
        ++telemetrySeq;
        return true;
    };

    Frame hello;
    hello.type = FrameType::Hello;
    hello.cell = ordinal;
    if (!writeFrameBlocking(responseFd, hello))
        return kWorkerExitPipe;
    flight.record("hello", ordinal);
    if (!sendTelemetry(false))
        return kWorkerExitPipe;

    std::uint32_t assignments = 0;
    Frame request;
    while (readFrameBlocking(requestFd, request, nullptr)) {
        if (request.type == FrameType::Shutdown) {
            // The clean-exit counter crosses the pipe only inside
            // the final frame: its presence in the merged snapshot
            // is the direct proof the coordinator drained the frame
            // before reaping.
            flight.record("shutdown", ordinal);
            cleanExits.add();
            sendTelemetry(true);
            return kWorkerExitOk;
        }
        if (request.type != FrameType::Assign)
            continue;
        ++assignments;
        flight.record("assign", request.cell, request.attempt);

        Frame heartbeat;
        heartbeat.type = FrameType::Heartbeat;
        heartbeat.cell = request.cell;
        heartbeat.attempt = request.attempt;
        if (!writeFrameBlocking(responseFd, heartbeat))
            return kWorkerExitPipe;

        // Chaos: die abruptly on the (killAfterCells+1)-th
        // assignment of the victim's first incarnation — after the
        // heartbeat, so the coordinator sees a started cell vanish.
        if (chaosArmed && chaos.killWorker >= 0 &&
            ordinal == static_cast<unsigned>(chaos.killWorker) &&
            assignments > chaos.killAfterCells) {
            flight.record("chaos-kill", request.cell,
                          request.attempt);
            return kWorkerExitChaosKill;
        }

        // Chaos: hang the designated cell's first attempt until the
        // coordinator's deadline kills this worker. Retries carry
        // attempt >= 1 and proceed normally.
        if (chaos.stallCell >= 0 &&
            request.cell ==
                static_cast<std::uint32_t>(chaos.stallCell) &&
            request.attempt == 0) {
            flight.record("chaos-stall", request.cell,
                          request.attempt);
            for (;;)
                ::poll(nullptr, 0, 1000);
        }

        // jobs_override=1: the forked child must never touch the
        // inherited thread pool (its worker threads do not exist
        // after fork); the serial path is bit-identical anyway.
        flight.record("run", request.cell, request.attempt);
        Result<FaultCampaignReport> cell =
            plan.runCell(request.cell, /*jobs_override=*/1);

        Frame reply;
        reply.cell = request.cell;
        reply.attempt = request.attempt;
        if (cell.ok()) {
            reply.type = FrameType::CellResult;
            reply.payload = serializeCellReport(cell.value());
            cellsDone.add();
            flight.record("result", request.cell, request.attempt);
        } else {
            reply.type = FrameType::CellError;
            reply.payload = cell.error().describe();
            flight.record("error", request.cell, request.attempt);
        }
        std::string bytes = encodeFrame(reply);
        if (chaos.corruptCell >= 0 &&
            request.cell ==
                static_cast<std::uint32_t>(chaos.corruptCell) &&
            request.attempt == 0) {
            flight.record("chaos-corrupt", request.cell,
                          request.attempt);
            corruptEncodedFrame(bytes);
        }
        if (!writeAllBlocking(responseFd, bytes))
            return kWorkerExitPipe;
        if (!sendTelemetry(false))
            return kWorkerExitPipe;
    }
    // EOF on the request pipe: the coordinator is gone.
    return kWorkerExitOk;
}

// --------------------------------------------------------------------
// The coordinator.
// --------------------------------------------------------------------

/** One pending (cell, attempt) with its backoff eligibility time. */
struct PendingCell
{
    std::uint32_t cell = 0;
    std::uint32_t attempt = 0;
    std::int64_t eligibleAtMs = 0;
};

/** Coordinator-side state of one worker slot. */
struct WorkerSlot
{
    WorkerProcess process;
    FrameDecoder decoder;
    unsigned ordinal = 0;
    bool alive = false;
    bool idle = true;
    /** This incarnation is the slot's first (chaos-armed) one. */
    bool firstIncarnation = false;
    /** Cells assigned to this incarnation so far. */
    std::uint32_t assignments = 0;
    std::uint32_t cell = 0;
    std::uint32_t attempt = 0;
    std::int64_t deadlineMs = 0;
    std::int64_t assignedAtMs = 0;
    /** Last telemetry export from this incarnation (if any). */
    WorkerTelemetry lastTelemetry;
    bool haveTelemetry = false;
    /** Telemetry frames received from this incarnation. */
    std::uint64_t telemetryFrames = 0;
};

/** The whole sharded execution of one prepared plan. */
class ShardCoordinator
{
  public:
    ShardCoordinator(const PreparedSweep &plan,
                     const SweepShardConfig &config)
        : plan_(plan), config_(config),
          registry_(MetricsRegistry::global()),
          recorder_(TraceRecorder::global()),
          flight_(FlightRecorder::global())
    {
    }

    Result<std::vector<FaultCampaignReport>>
    run(SweepShardStats *stats)
    {
        const std::size_t cells = plan_.cellCount();
        unsigned workers =
            config_.workers > 0 ? config_.workers : hardwareJobs();
        workers = static_cast<unsigned>(std::min<std::size_t>(
            std::max(1u, workers), cells));

        results_.resize(cells);
        stored_.assign(cells, false);
        remaining_ = cells;
        stats_ = SweepShardStats{};
        stats_.workers = workers;
        stats_.cellsPerWorker.assign(workers, 0);
        fairShare_ = (cells + workers - 1) / workers;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            pending_.push_back(
                {static_cast<std::uint32_t>(cell), 0, nowMs()});
        }

        recorder_.setThreadName(TraceRecorder::kHostPid,
                                kCoordinatorTrack,
                                "shard coordinator");
        workerNamed_.assign(workers, false);
        slots_.resize(workers);
        for (unsigned w = 0; w < workers; ++w) {
            slots_[w].ordinal = w;
            recorder_.setThreadName(
                TraceRecorder::kHostPid, workerTrack(w),
                detail::concat("shard worker ", w));
            spawnSlot(slots_[w], /*firstIncarnation=*/true);
        }

        while (remaining_ > 0) {
            respawnDead();
            if (aliveCount() == 0) {
                // No worker could be (re)started: drain everything
                // still pending in-process so no cell is ever lost.
                drainPendingInProcess();
                continue;
            }
            assignIdle();
            waitAndDrain();
            expireDeadlines();
        }
        shutdownWorkers();
        finalizeWorkerMerge();

        stats_.cells = cells;
        exportMetrics();
        *stats = stats_;

        std::vector<FaultCampaignReport> merged;
        merged.reserve(cells);
        for (std::size_t cell = 0; cell < cells; ++cell) {
            RANA_ASSERT(stored_[cell],
                        "sharded sweep lost cell ", cell);
            merged.push_back(std::move(results_[cell]));
        }
        return merged;
    }

  private:
    unsigned aliveCount() const
    {
        unsigned count = 0;
        for (const WorkerSlot &slot : slots_)
            count += slot.alive ? 1 : 0;
        return count;
    }

    void spawnSlot(WorkerSlot &slot, bool firstIncarnation)
    {
        const PreparedSweep &plan = plan_;
        const ShardChaosConfig chaos = config_.chaos;
        const unsigned ordinal = slot.ordinal;
        Result<WorkerProcess> spawned = WorkerProcess::spawn(
            [&plan, chaos, ordinal,
             firstIncarnation](int requestFd, int responseFd) {
                return workerBody(plan, chaos, ordinal,
                                  firstIncarnation, requestFd,
                                  responseFd);
            });
        if (!spawned.ok()) {
            warn("shard worker ", ordinal,
                 " failed to spawn: ", spawned.error().describe());
            slot.alive = false;
            return;
        }
        slot.process = std::move(spawned).value();
        slot.decoder = FrameDecoder();
        slot.alive = true;
        slot.idle = true;
        slot.firstIncarnation = firstIncarnation;
        slot.assignments = 0;
        slot.lastTelemetry = WorkerTelemetry{};
        slot.haveTelemetry = false;
        slot.telemetryFrames = 0;
    }

    void respawnDead()
    {
        // A dead slot is refilled only while there is queued work it
        // could pick up; tail cells still running elsewhere do not
        // justify a fork.
        for (WorkerSlot &slot : slots_) {
            if (slot.alive || pending_.empty())
                continue;
            spawnSlot(slot, /*firstIncarnation=*/false);
            if (slot.alive) {
                ++stats_.respawns;
                markInstant(workerTrack(slot.ordinal), "respawn");
            }
        }
    }

    /** The eligible pending entry with the lowest cell index. */
    std::optional<std::size_t> nextEligible(std::int64_t now) const
    {
        std::optional<std::size_t> best;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i].eligibleAtMs > now)
                continue;
            if (!best || pending_[i].cell < pending_[*best].cell)
                best = i;
        }
        return best;
    }

    /**
     * Pending cells held back for the chaos kill victim: until its
     * first incarnation has received the (killAfterCells+1)-th cell
     * it dies on, the other workers leave it that many cells, so the
     * kill fires however the workers' speeds interleave.
     */
    std::size_t chaosReserve() const
    {
        const ShardChaosConfig &chaos = config_.chaos;
        if (chaos.killWorker < 0 ||
            static_cast<std::size_t>(chaos.killWorker) >= slots_.size())
            return 0;
        const WorkerSlot &victim = slots_[chaos.killWorker];
        if (!victim.alive || !victim.firstIncarnation ||
            victim.assignments > chaos.killAfterCells)
            return 0;
        return chaos.killAfterCells + 1 - victim.assignments;
    }

    void assignIdle()
    {
        const std::int64_t now = nowMs();
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive || !slot.idle)
                continue;
            if (static_cast<int>(slot.ordinal) != config_.chaos.killWorker &&
                pending_.size() <= chaosReserve())
                continue;
            std::optional<std::size_t> next = nextEligible(now);
            if (!next)
                break;
            const PendingCell entry = pending_[*next];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(*next));
            Frame assign;
            assign.type = FrameType::Assign;
            assign.cell = entry.cell;
            assign.attempt = entry.attempt;
            if (!slot.process.writeFrame(assign)) {
                // The worker died between polls; requeue and let the
                // crash path below reap it.
                pending_.push_back(entry);
                declareCrashed(slot, "write-failure");
                continue;
            }
            flight_.record("assign", entry.cell, entry.attempt);
            ++slot.assignments;
            slot.idle = false;
            slot.cell = entry.cell;
            slot.attempt = entry.attempt;
            slot.assignedAtMs = now;
            slot.deadlineMs =
                now + static_cast<std::int64_t>(config_.cellTimeoutMs);
        }
    }

    void waitAndDrain()
    {
        const std::int64_t now = nowMs();
        std::int64_t timeout = 100;
        for (const WorkerSlot &slot : slots_) {
            if (slot.alive && !slot.idle)
                timeout = std::min(timeout, slot.deadlineMs - now);
        }
        for (const PendingCell &entry : pending_)
            timeout = std::min(timeout, entry.eligibleAtMs - now);
        timeout = std::max<std::int64_t>(1, timeout);

        std::vector<int> fds;
        fds.reserve(slots_.size());
        for (const WorkerSlot &slot : slots_)
            fds.push_back(slot.alive ? slot.process.readFd() : -1);
        std::vector<bool> readable;
        pollReadable(fds, static_cast<int>(timeout), readable);

        for (std::size_t i = 0; i < slots_.size(); ++i) {
            WorkerSlot &slot = slots_[i];
            if (!slot.alive || !readable[i])
                continue;
            const bool open =
                drainInto(slot.process.readFd(), slot.decoder);
            // Frames already buffered are handled even when the
            // stream just hit EOF: a result that raced the crash
            // still counts.
            while (std::optional<FrameDecoder::Decoded> decoded =
                       slot.decoder.next()) {
                handleFrame(slot, *decoded);
                if (!slot.alive)
                    break;
            }
            if (slot.alive &&
                (!open || slot.decoder.desynchronized())) {
                declareCrashed(slot, slot.decoder.desynchronized()
                                         ? "desync"
                                         : "crash");
            }
        }
    }

    void handleFrame(WorkerSlot &slot,
                     const FrameDecoder::Decoded &decoded)
    {
        const Frame &frame = decoded.frame;
        switch (frame.type) {
          case FrameType::Hello:
            return;
          case FrameType::Heartbeat:
            // The worker started the cell; restart the deadline so
            // slow assignment delivery is not charged to compute.
            if (!slot.idle && frame.cell == slot.cell &&
                frame.attempt == slot.attempt) {
                slot.deadlineMs =
                    nowMs() +
                    static_cast<std::int64_t>(config_.cellTimeoutMs);
            }
            return;
          case FrameType::CellResult: {
            if (slot.idle || frame.cell != slot.cell ||
                frame.attempt != slot.attempt) {
                // Stale frame from a superseded attempt. Counted so
                // the cross-process accounting invariant closes:
                // worker-reported completions = stored + corrupt +
                // stale - degraded.
                ++stats_.staleResults;
                registry_.counter("shard_stale_results_total").add();
                return;
            }
            // A payload that fails its checksum or does not parse is
            // corrupt either way: count it and retry the cell.
            Result<FaultCampaignReport> report =
                decoded.checksumOk
                    ? parseCellReport(frame.payload)
                    : makeError(ErrorCode::ParseError,
                                "frame checksum mismatch");
            if (!report.ok()) {
                ++stats_.corruptFrames;
                registry_.counter("shard_corrupt_frames_total").add();
                markInstant(workerTrack(slot.ordinal),
                            decoded.checksumOk ? "unparsable frame"
                                               : "corrupt frame");
                slot.idle = true;
                requeueFailure(slot.cell, slot.attempt);
                return;
            }
            storeResult(slot.cell, std::move(report).value());
            ++stats_.cellsPerWorker[slot.ordinal];
            if (stats_.cellsPerWorker[slot.ordinal] > fairShare_) {
                ++stats_.stolenCells;
                registry_.counter("shard_stolen_cells_total").add();
            }
            const std::int64_t now = nowMs();
            recorder_.completeEvent(
                TraceRecorder::kHostPid, workerTrack(slot.ordinal),
                recorder_.nowMicros() -
                    1000.0 *
                        static_cast<double>(now - slot.assignedAtMs),
                1000.0 * static_cast<double>(now - slot.assignedAtMs),
                "shard", detail::concat("cell ", slot.cell));
            slot.idle = true;
            return;
          }
          case FrameType::CellError: {
            if (slot.idle || frame.cell != slot.cell ||
                frame.attempt != slot.attempt)
                return;
            warn("shard worker ", slot.ordinal, " failed cell ",
                 frame.cell, ": ", frame.payload);
            slot.idle = true;
            requeueFailure(slot.cell, slot.attempt);
            return;
          }
          case FrameType::Telemetry:
            acceptTelemetry(slot, decoded);
            return;
          case FrameType::Assign:
          case FrameType::Shutdown:
            return; // coordinator-to-worker kinds; ignore echoes
        }
    }

    /** Merge one worker telemetry export into the coordinator. */
    void acceptTelemetry(WorkerSlot &slot,
                         const FrameDecoder::Decoded &decoded)
    {
        if (!decoded.checksumOk) {
            warn("shard worker ", slot.ordinal,
                 " sent a corrupt telemetry frame; dropped");
            return;
        }
        Result<WorkerTelemetry> parsed =
            parseWorkerTelemetry(decoded.frame.payload);
        if (!parsed.ok()) {
            warn("shard worker ", slot.ordinal,
                 " sent unparsable telemetry: ",
                 parsed.error().describe());
            return;
        }
        WorkerTelemetry telemetry = std::move(parsed).value();
        ++slot.telemetryFrames;
        ++stats_.telemetryFrames;
        registry_.counter("telemetry_frames_total").add();
        flight_.record("telemetry", slot.ordinal,
                       static_cast<std::uint32_t>(telemetry.seq));
        if (recorder_.enabled()) {
            ensureWorkerTracks(slot.ordinal);
            importWorkerTrace(slot.ordinal, telemetry.trace);
            recorder_.counterEvent(
                workerHostPid(slot.ordinal),
                "worker cells completed", recorder_.nowMicros(),
                "cells",
                static_cast<double>(counterValue(
                    telemetry.metrics,
                    "worker_cells_completed_total")));
        }
        slot.lastTelemetry = std::move(telemetry);
        slot.haveTelemetry = true;
    }

    /** Name a worker's merged-trace process group once per run. */
    void ensureWorkerTracks(unsigned ordinal)
    {
        if (workerNamed_[ordinal])
            return;
        workerNamed_[ordinal] = true;
        recorder_.setProcessName(
            workerHostPid(ordinal),
            detail::concat("rana worker ", ordinal));
        recorder_.setProcessName(
            workerSimPid(ordinal),
            detail::concat("rana worker ", ordinal, " sim"));
        recorder_.setThreadName(workerHostPid(ordinal), 0, "main");
    }

    /**
     * Import a worker's exported trace events under its own process
     * ids: host-side events merge under workerHostPid, simulated-
     * timeline events under workerSimPid.
     */
    void
    importWorkerTrace(unsigned ordinal,
                      const std::vector<TraceRecorder::Event> &events)
    {
        std::vector<TraceRecorder::Event> remapped = events;
        for (TraceRecorder::Event &event : remapped) {
            event.pid = event.pid == TraceRecorder::kSimPid
                            ? workerSimPid(ordinal)
                            : workerHostPid(ordinal);
        }
        recorder_.importEvents(remapped);
    }

    void expireDeadlines()
    {
        const std::int64_t now = nowMs();
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive || slot.idle || slot.deadlineMs > now)
                continue;
            ++stats_.timeouts;
            registry_.counter("shard_timeouts_total").add();
            markInstant(workerTrack(slot.ordinal),
                        detail::concat("timeout cell ", slot.cell));
            warn("shard worker ", slot.ordinal, " timed out on cell ",
                 slot.cell, " after ", config_.cellTimeoutMs, " ms");
            declareCrashed(slot, "timeout");
        }
    }

    /** A worker died (EOF, desync, write failure or timeout kill). */
    void declareCrashed(WorkerSlot &slot, const char *reason)
    {
        ++stats_.workerCrashes;
        registry_.counter("shard_worker_crashes_total").add();
        markInstant(workerTrack(slot.ordinal), "crash");
        flight_.record(reason, slot.cell, slot.attempt);
        slot.process.kill();
        int status = 0;
        slot.process.reap(&status, /*block=*/true);
        slot.process.closePipes();
        slot.alive = false;
        writePostmortem(slot, reason, status);
        foldWorkerTelemetry(slot);
        if (!slot.idle) {
            slot.idle = true;
            requeueFailure(slot.cell, slot.attempt);
        }
    }

    /** One postmortem incident dump under config_.postmortemDir. */
    void writePostmortem(const WorkerSlot &slot, const char *reason,
                         int status)
    {
        ++incidents_;
        if (config_.postmortemDir.empty())
            return;
        ::mkdir(config_.postmortemDir.c_str(), 0777);
        PostmortemReport report;
        report.worker = slot.ordinal;
        report.incident = incidents_;
        report.reason = reason;
        report.exited = WIFEXITED(status);
        report.exitCode =
            report.exited ? WEXITSTATUS(status) : 0;
        report.signaled = WIFSIGNALED(status);
        report.termSignal =
            report.signaled ? WTERMSIG(status) : 0;
        report.busy = !slot.idle;
        report.lastCell = slot.cell;
        report.lastAttempt = slot.attempt;
        report.telemetryFrames = slot.telemetryFrames;
        if (slot.haveTelemetry) {
            report.lastMetrics = slot.lastTelemetry.metrics;
            report.flight = slot.lastTelemetry.flight;
        }
        const std::string path = detail::concat(
            config_.postmortemDir, "/postmortem-worker",
            slot.ordinal, "-", incidents_, ".json");
        std::ofstream out(path);
        if (!out) {
            warn("cannot write postmortem dump ", path);
            return;
        }
        out << serializePostmortem(report) << "\n";
        if (!out) {
            warn("failed writing postmortem dump ", path);
            return;
        }
        ++stats_.postmortemDumps;
        registry_.counter("postmortem_dumps_total").add();
        markInstant(workerTrack(slot.ordinal), "postmortem");
    }

    /**
     * Retire a dead (or cleanly shut down) incarnation's last
     * telemetry snapshot into the cross-worker accumulation.
     */
    void foldWorkerTelemetry(WorkerSlot &slot)
    {
        if (!slot.haveTelemetry)
            return;
        workerSnapshots_.push_back(
            std::move(slot.lastTelemetry.metrics));
        slot.lastTelemetry = WorkerTelemetry{};
        slot.haveTelemetry = false;
    }

    /**
     * Publish the merged per-worker instruments into the registry
     * under a "_worker_sum" suffix: counters add across workers,
     * gauges keep the maximum, histograms add bucket-wise.
     */
    void finalizeWorkerMerge()
    {
        const MetricsSnapshot merged =
            mergeSnapshots(workerSnapshots_);
        for (const auto &counter : merged.counters) {
            registry_.counter(counter.name + "_worker_sum")
                .add(counter.value);
        }
        for (const auto &gauge : merged.gauges) {
            registry_.gauge(gauge.name + "_worker_sum")
                .setMax(gauge.value);
        }
        for (const auto &histogram : merged.histograms) {
            if (histogram.bounds.empty())
                continue;
            MetricsRegistry::Histogram &target =
                registry_.histogram(histogram.name + "_worker_sum",
                                    histogram.bounds);
            if (target.bounds() == histogram.bounds)
                target.accumulate(histogram.counts, histogram.sum);
        }
    }

    /**
     * A cell attempt failed: requeue with exponential backoff, or —
     * once its retry budget is spent — run it in-process right here.
     * Either way the cell is never lost.
     */
    void requeueFailure(std::uint32_t cell, std::uint32_t attempt)
    {
        if (attempt >= config_.maxRetries) {
            ++stats_.degradedCells;
            registry_.counter("shard_degraded_cells_total").add();
            markInstant(kCoordinatorTrack,
                        detail::concat("degraded cell ", cell));
            warn("shard cell ", cell, " exhausted ",
                 config_.maxRetries,
                 " retries; degrading to in-process execution");
            runInProcess(cell);
            return;
        }
        ++stats_.retries;
        registry_.counter("shard_retries_total").add();
        flight_.record("requeue", cell, attempt + 1);
        PendingCell entry;
        entry.cell = cell;
        entry.attempt = attempt + 1;
        entry.eligibleAtMs =
            nowMs() + (static_cast<std::int64_t>(config_.backoffBaseMs)
                       << attempt);
        pending_.push_back(entry);
    }

    /** In-process (coordinator) execution of one cell. */
    void runInProcess(std::uint32_t cell)
    {
        Result<FaultCampaignReport> report = plan_.runCell(cell);
        if (!report.ok()) {
            // The cell is deterministic, so an in-process failure is
            // a configuration-level error every attempt shared;
            // surfacing it via panic would lose the merged grid.
            panic("sharded sweep cell ", cell,
                  " failed in-process: ", report.error().describe());
        }
        storeResult(cell, std::move(report).value());
    }

    void storeResult(std::uint32_t cell, FaultCampaignReport report)
    {
        RANA_ASSERT(!stored_[cell],
                    "sharded sweep stored cell twice: ", cell);
        results_[cell] = std::move(report);
        stored_[cell] = true;
        --remaining_;
        registry_.counter("shard_cells_completed_total").add();
        flight_.record("store", cell);
    }

    /** No workers left and none spawnable: finish alone. */
    void drainPendingInProcess()
    {
        warn("sharded sweep has no live workers; running ",
             pending_.size() + remainingAssigned(),
             " remaining cells in-process");
        while (!pending_.empty()) {
            const PendingCell entry = pending_.back();
            pending_.pop_back();
            ++stats_.degradedCells;
            registry_.counter("shard_degraded_cells_total").add();
            runInProcess(entry.cell);
        }
    }

    std::size_t remainingAssigned() const
    {
        std::size_t count = 0;
        for (const WorkerSlot &slot : slots_)
            count += (slot.alive && !slot.idle) ? 1 : 0;
        return count;
    }

    void shutdownWorkers()
    {
        // Broadcast Shutdown first so every worker serializes its
        // final telemetry concurrently rather than one at a time.
        Frame shutdown;
        shutdown.type = FrameType::Shutdown;
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            if (!slot.process.writeFrame(shutdown))
                declareCrashed(slot, "write-failure");
        }
        // Then drain each response stream to EOF before reaping:
        // the final telemetry frame (carrying the worker's clean-
        // exit counter and flight ring) is still in the pipe, and
        // closing first would discard it. A worker that neither
        // exits nor keeps the pipe open past the deadline is killed.
        const std::int64_t deadlineMs = nowMs() + 10000;
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            bool open = true;
            while (open && nowMs() < deadlineMs) {
                std::vector<int> fds{slot.process.readFd()};
                std::vector<bool> readable;
                pollReadable(fds, 50, readable);
                if (!readable[0])
                    continue;
                open = drainInto(slot.process.readFd(),
                                 slot.decoder);
                while (std::optional<FrameDecoder::Decoded>
                           decoded = slot.decoder.next()) {
                    handleFrame(slot, *decoded);
                }
                if (slot.decoder.desynchronized())
                    break;
            }
            if (open)
                slot.process.kill();
            slot.process.closePipes();
            slot.process.reap(nullptr, /*block=*/true);
            slot.alive = false;
            foldWorkerTelemetry(slot);
        }
    }

    void markInstant(int track, const std::string &name)
    {
        recorder_.instantEvent(TraceRecorder::kHostPid, track,
                               recorder_.nowMicros(), "shard", name);
    }

    void exportMetrics()
    {
        registry_.gauge("shard_workers").set(stats_.workers);
    }

    const PreparedSweep &plan_;
    const SweepShardConfig &config_;
    MetricsRegistry &registry_;
    TraceRecorder &recorder_;
    FlightRecorder &flight_;

    std::vector<WorkerSlot> slots_;
    std::vector<PendingCell> pending_;
    std::vector<FaultCampaignReport> results_;
    std::vector<bool> stored_;
    std::size_t remaining_ = 0;
    std::size_t fairShare_ = 0;
    SweepShardStats stats_;
    /** Retired incarnation snapshots awaiting the final merge. */
    std::vector<MetricsSnapshot> workerSnapshots_;
    /** Whether worker ordinal's trace process group is named yet. */
    std::vector<bool> workerNamed_;
    /** Incident counter (postmortem file numbering). */
    std::uint64_t incidents_ = 0;
};

Result<std::vector<FaultCampaignReport>>
runShardedCells(const PreparedSweep &plan,
                const SweepShardConfig &config, SweepShardStats *stats)
{
    ShardCoordinator coordinator(plan, config);
    return coordinator.run(stats);
}

} // namespace

std::string
SweepShardStats::describe() const
{
    std::ostringstream oss;
    oss << cells << " cells over " << workers << " workers ("
        << stolenCells << " stolen, " << retries << " retries, "
        << timeouts << " timeouts, " << corruptFrames
        << " corrupt frames, " << staleResults << " stale, "
        << workerCrashes << " crashes, " << respawns
        << " respawns, " << degradedCells << " degraded, "
        << telemetryFrames << " telemetry frames, "
        << postmortemDumps << " postmortems)";
    return oss.str();
}

Result<ShardedSweepResult>
runShardedCampaignSweep(const DesignPoint &design,
                        const NetworkModel &network,
                        const CampaignSweepConfig &config,
                        const SweepShardConfig &shard)
{
    ScopedSpan span("shard", "sharded_campaign_sweep");
    Result<PreparedSweep> prepared =
        PreparedSweep::prepareSweep(design, network, config);
    if (!prepared.ok())
        return prepared.error();
    ShardedSweepResult result;
    Result<std::vector<FaultCampaignReport>> cells =
        runShardedCells(prepared.value(), shard, &result.stats);
    if (!cells.ok())
        return cells.error();
    result.report =
        prepared.value().assembleSweep(std::move(cells).value());
    return result;
}

Result<ShardedComparisonResult>
runShardedGuardPolicyComparison(const DesignPoint &design,
                                const NetworkModel &network,
                                const CampaignSweepConfig &config,
                                const SweepShardConfig &shard)
{
    ScopedSpan span("shard", "sharded_guard_policy_comparison");
    Result<PreparedSweep> prepared =
        PreparedSweep::prepareComparison(design, network, config);
    if (!prepared.ok())
        return prepared.error();
    ShardedComparisonResult result;
    Result<std::vector<FaultCampaignReport>> cells =
        runShardedCells(prepared.value(), shard, &result.stats);
    if (!cells.ok())
        return cells.error();
    result.report =
        prepared.value().assembleComparison(std::move(cells).value());
    return result;
}

// --------------------------------------------------------------------
// Cell-report JSON: the CellResult frame payload and the canonical
// comparison forms. Each record's field list is the one definition of
// its keys and their order, read and written by util/json_fields.
// --------------------------------------------------------------------

void
visitFields(auto &v, FieldsOf<TrialResult> auto &trial)
{
    v.field("seed", trial.seed);
    v.field("weightFailureRate", trial.weightFailureRate);
    v.field("activationFailureRate", trial.activationFailureRate);
    v.field("exposedBanks", trial.exposedBanks);
    v.field("exposedWords", trial.exposedWords);
    v.field("accuracy", trial.accuracy);
    v.field("relativeAccuracy", trial.relativeAccuracy);
}

void
visitFields(auto &v, FieldsOf<LayerExposure> auto &exposure)
{
    v.field("layerName", exposure.layerName);
    v.field("exposureSeconds", exposure.exposureSeconds);
    v.field("observedLifetimeSeconds", exposure.observedLifetimeSeconds);
    v.field("banks", exposure.banks);
    v.field("words", exposure.words);
    v.field("bankStart", exposure.bankStart);
}

void
visitFields(auto &v, FieldsOf<ReliabilityGuard::Stats> auto &stats)
{
    v.field("trips", stats.trips);
    v.field("banksReenabled", stats.banksReenabled);
    v.field("fallbackRefreshOps", stats.fallbackRefreshOps);
    v.field("tripsByType", stats.tripsByType);
    v.field("worstObservedLifetimeSeconds",
            stats.worstObservedLifetimeSeconds);
    v.field("redisarms", stats.redisarms);
    v.field("escalations", stats.escalations);
    v.field("cleanIntervals", stats.cleanIntervals);
    v.field("armedRefreshOps", stats.armedRefreshOps);
}

namespace {

/** The identity members every campaign report opens with. */
void
visitIdentity(auto &v, auto &report)
{
    v.field("designName", report.designName);
    v.field("networkName", report.networkName);
    v.field("modelName", report.modelName);
    v.field("baselineAccuracy", report.baselineAccuracy);
}

/** A canonical grid cell's coordinates and report. */
void
visitGridCell(auto &v, auto &cell)
{
    v.field("failureRate", cell.failureRate);
    v.field("refreshIntervalSeconds", cell.refreshIntervalSeconds);
    v.field("report", cell.report);
}

/** A canonical report's grid axes and cells. */
void
visitGrid(auto &v, auto &report)
{
    v.field("failureRates", report.failureRates);
    v.field("refreshIntervals", report.refreshIntervals);
    v.field("cells", report.cells);
}

} // namespace

void
visitFields(auto &v, FieldsOf<FaultCampaignReport> auto &report)
{
    visitIdentity(v, report);
    v.field("operatingFailureRate", report.operatingFailureRate);
    v.field("trials", report.trials);
    v.field("exposures", report.exposures);
    v.field("meanAccuracy", report.meanAccuracy);
    v.field("worstAccuracy", report.worstAccuracy);
    v.field("meanRelativeAccuracy", report.meanRelativeAccuracy);
    v.field("worstRelativeAccuracy", report.worstRelativeAccuracy);
    v.field("p5Accuracy", report.p5Accuracy);
    v.field("p50Accuracy", report.p50Accuracy);
    v.field("p95Accuracy", report.p95Accuracy);
    v.field("p5RelativeAccuracy", report.p5RelativeAccuracy);
    v.field("p50RelativeAccuracy", report.p50RelativeAccuracy);
    v.field("p95RelativeAccuracy", report.p95RelativeAccuracy);
    v.field("meanWeightFailureRate", report.meanWeightFailureRate);
    v.field("meanActivationFailureRate",
            report.meanActivationFailureRate);
    v.field("executionSeconds", report.executionSeconds);
    v.field("retentionViolations", report.retentionViolations);
    v.field("refreshOps", report.refreshOps);
    v.wallClock("trialSeconds", report.trialSeconds);
    v.wallClock("trialsPerSecond", report.trialsPerSecond);
    v.field("guarded", report.guarded);
    v.field("guardPolicyName", report.guardPolicyName);
    v.field("guardStats", report.guardStats);
}

// The canonical forms below are written only, never parsed.

void
visitFields(auto &v, FieldsOf<SweepCell> auto &cell)
{
    visitGridCell(v, cell);
}

void
visitFields(auto &v, FieldsOf<GuardPolicyComparisonCell> auto &cell)
{
    v.field("policyName", cell.policyName);
    visitGridCell(v, cell);
}

void
visitFields(auto &v, FieldsOf<CampaignSweepReport> auto &report)
{
    visitIdentity(v, report);
    visitGrid(v, report);
}

void
visitFields(auto &v, FieldsOf<GuardPolicyComparisonReport> auto &report)
{
    visitIdentity(v, report);
    // JsonWriter arrays hold numbers only; the name axis is one
    // joined string (names never contain '|').
    std::string policies;
    for (const std::string &name : report.policyNames) {
        if (!policies.empty())
            policies += "|";
        policies += name;
    }
    v.field("policyNames", policies);
    visitGrid(v, report);
}

std::string
serializeCellReport(const FaultCampaignReport &report)
{
    return writeJsonRecord(report);
}

Result<FaultCampaignReport>
parseCellReport(const std::string &text)
{
    return parseJsonRecord<FaultCampaignReport>(text, "cell report");
}

std::string
canonicalSweepJson(const CampaignSweepReport &report)
{
    return writeJsonRecord(report, /*dropWallClock=*/true);
}

std::string
canonicalComparisonJson(const GuardPolicyComparisonReport &report)
{
    return writeJsonRecord(report, /*dropWallClock=*/true);
}

} // namespace rana
