/**
 * @file
 * Cross-process telemetry: the payload schemas that carry a worker
 * process's observability state over the subprocess frame protocol,
 * and the snapshot algebra (parse, merge, diff) shared by the sweep
 * coordinator, the rana_obs CLI and the tests.
 *
 * Three JSON document schemas live here:
 *
 *  - "rana-telemetry-1": one worker telemetry export — the worker's
 *    MetricsRegistry snapshot, its flight-recorder ring and the
 *    Chrome-trace events recorded since its previous export. Sent as
 *    a FrameType::Telemetry payload after startup, after every cell
 *    and (with final=true) on clean shutdown.
 *  - "rana-postmortem-1": one crash/timeout incident — the victim's
 *    last-known telemetry plus its exit status and last assignment.
 *    Written by the coordinator under --postmortem-dir.
 *  - "rana-metrics-1" (defined in metrics_registry): parsed here so
 *    rana_obs can diff/merge the files rana_faultsim & friends emit.
 *
 * Everything parses crash-free: frames may be chaos-corrupted and
 * dump files hand-edited, so malformed input — including an integer
 * too large for its field — returns ParseError, never an assertion
 * or a wrapped value. Each record's keys are listed once, in
 * telemetry.cc, and util/json_fields reads and writes that list.
 */

#ifndef RANA_OBS_TELEMETRY_HH_
#define RANA_OBS_TELEMETRY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics_registry.hh"
#include "util/result.hh"

namespace rana {

class JsonValue;

/** One worker-process telemetry export (a Telemetry frame payload). */
struct WorkerTelemetry
{
    /** Reporting worker ordinal. */
    std::uint32_t worker = 0;
    /** Frame sequence within this worker incarnation (0-based). */
    std::uint64_t seq = 0;
    /** Whether this is the worker's final frame before a clean exit. */
    bool finalFrame = false;
    /** The worker's cumulative registry snapshot (post-fork deltas). */
    MetricsSnapshot metrics;
    /** The worker's flight-recorder ring at export time. */
    std::vector<FlightEvent> flight;
    /** Trace events recorded since the previous export. */
    std::vector<TraceRecorder::Event> trace;
};

/** Serialize one telemetry export ("rana-telemetry-1"). */
std::string serializeWorkerTelemetry(const WorkerTelemetry &telemetry);

/** Parse a telemetry payload; malformed bytes fail with ParseError. */
Result<WorkerTelemetry> parseWorkerTelemetry(const std::string &text);

/** One postmortem incident dump ("rana-postmortem-1"). */
struct PostmortemReport
{
    /** Victim worker ordinal. */
    std::uint32_t worker = 0;
    /** 1-based incident number within the run. */
    std::uint64_t incident = 0;
    /** Why the coordinator declared the worker dead. */
    std::string reason;
    /** Whether waitpid saw a normal exit (then exitCode is valid). */
    bool exited = false;
    int exitCode = 0;
    /** Whether a signal killed it (then termSignal is valid). */
    bool signaled = false;
    int termSignal = 0;
    /** Whether a cell was in flight when the worker died. */
    bool busy = false;
    std::uint64_t lastCell = 0;
    std::uint64_t lastAttempt = 0;
    /** Telemetry frames received from this incarnation. */
    std::uint64_t telemetryFrames = 0;
    /** The victim's last-known metrics snapshot (may be empty). */
    MetricsSnapshot lastMetrics;
    /** The victim's last-known flight ring (may be empty). */
    std::vector<FlightEvent> flight;
};

/** Serialize one incident dump ("rana-postmortem-1"). */
std::string serializePostmortem(const PostmortemReport &report);

/** Parse an incident dump; malformed bytes fail with ParseError. */
Result<PostmortemReport> parsePostmortem(const std::string &text);

/**
 * Parse the "counters"/"gauges"/"histograms" members of `object`
 * back into a snapshot (the inverse of writeSnapshotMembers).
 */
Result<MetricsSnapshot> parseSnapshotMembers(const JsonValue &object);

/** Parse a standalone "rana-metrics-1" document. */
Result<MetricsSnapshot> parseMetricsDocument(const std::string &text);

/** Render a snapshot as a standalone "rana-metrics-1" document. */
std::string metricsDocumentFromSnapshot(const MetricsSnapshot &snap);

/**
 * Merge snapshots with per-worker-sum semantics: counters add,
 * gauges keep the maximum, histograms with identical bounds add
 * bucket-wise (on a bounds mismatch the first wins).
 */
MetricsSnapshot
mergeSnapshots(const std::vector<MetricsSnapshot> &snapshots);

/** One instrument-level difference between two snapshots. */
struct SnapshotDiffEntry
{
    /** "counter", "gauge", "histogram_count", "histogram_sum", ... */
    std::string kind;
    std::string name;
    /** The differing values (missing instruments read as 0). */
    double a = 0.0;
    double b = 0.0;
};

/**
 * Compare two snapshots. `countersOnly` restricts the comparison to
 * counters; any instrument whose name contains one of
 * `ignoreSubstrings` is skipped (scheduling- and wall-clock-
 * dependent metrics differ between byte-identical runs by
 * construction).
 */
std::vector<SnapshotDiffEntry>
diffSnapshots(const MetricsSnapshot &a, const MetricsSnapshot &b,
              bool countersOnly,
              const std::vector<std::string> &ignoreSubstrings);

/** The value of counter `name` in `snap`, or 0 when absent. */
std::uint64_t counterValue(const MetricsSnapshot &snap,
                           const std::string &name);

/** Whether `snap` has a counter named `name`. */
bool hasCounter(const MetricsSnapshot &snap, const std::string &name);

} // namespace rana

#endif // RANA_OBS_TELEMETRY_HH_
