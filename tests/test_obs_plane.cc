/**
 * @file
 * Tests of the cross-process observability plane building blocks:
 * the lock-free flight recorder (wraparound, concurrent writers,
 * snapshot-while-writing), the telemetry/postmortem document
 * round-trips, and the snapshot algebra (merge, diff) behind
 * rana_obs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/metrics_registry.hh"
#include "obs/telemetry.hh"

#include "wire_bytes.hh"

namespace rana {
namespace {

// --------------------------------------------------------------------
// Flight recorder.
// --------------------------------------------------------------------

TEST(FlightRecorder, RecordsAndSnapshots)
{
    FlightRecorder ring;
    ring.record("hello", 7);
    ring.record("assign", 3, 1);
    ring.record("result", 3, 1, 42);
    const std::vector<FlightEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].phase, "hello");
    EXPECT_EQ(events[0].cell, 7u);
    EXPECT_EQ(events[1].phase, "assign");
    EXPECT_EQ(events[1].attempt, 1u);
    EXPECT_EQ(events[2].frameSeq, 42u);
    EXPECT_LT(events[0].seq, events[1].seq);
    EXPECT_LT(events[1].seq, events[2].seq);
    EXPECT_EQ(ring.recorded(), 3u);
}

TEST(FlightRecorder, WrapsAroundKeepingTheNewestEvents)
{
    FlightRecorder ring;
    const std::uint64_t total = FlightRecorder::kCapacity + 904;
    for (std::uint64_t i = 0; i < total; ++i) {
        ring.record("tick", static_cast<std::uint32_t>(i));
    }
    const std::vector<FlightEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
    // The oldest kCapacity - 1 events were overwritten; the
    // survivors are exactly the newest ones, in order.
    EXPECT_EQ(events.front().seq, total - FlightRecorder::kCapacity);
    EXPECT_EQ(events.back().seq, total - 1);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
}

TEST(FlightRecorder, TruncatesLongPhaseNames)
{
    FlightRecorder ring;
    ring.record("a-phase-name-well-beyond-the-inline-slot");
    const std::vector<FlightEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, "a-phase-name-we");
}

TEST(FlightRecorder, ConcurrentWritersLoseNothing)
{
    FlightRecorder ring;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 2000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ring, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                ring.record("spin", t, static_cast<std::uint32_t>(i));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
    const std::vector<FlightEvent> events = ring.snapshot();
    // Writers quiesced: the ring holds exactly the newest kCapacity
    // events, none torn.
    ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
    for (const FlightEvent &event : events) {
        EXPECT_EQ(event.phase, "spin");
        EXPECT_LT(event.cell, kThreads);
        EXPECT_LT(event.attempt, kPerThread);
    }
}

TEST(FlightRecorder, SnapshotWhileWritingSkipsTornSlotsOnly)
{
    FlightRecorder ring;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::uint32_t i = 0;
        while (!stop.load(std::memory_order_relaxed))
            ring.record("live", i++);
    });
    for (int i = 0; i < 50; ++i) {
        const std::vector<FlightEvent> events = ring.snapshot();
        EXPECT_LE(events.size(), FlightRecorder::kCapacity);
        for (std::size_t j = 1; j < events.size(); ++j)
            EXPECT_LT(events[j - 1].seq, events[j].seq);
        for (const FlightEvent &event : events)
            EXPECT_EQ(event.phase, "live");
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
}

TEST(FlightRecorder, ResetClears)
{
    FlightRecorder ring;
    ring.record("before");
    ring.reset();
    EXPECT_EQ(ring.recorded(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
    ring.record("after", 9);
    const std::vector<FlightEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, "after");
    EXPECT_EQ(events[0].cell, 9u);
}

// --------------------------------------------------------------------
// Telemetry documents.
// --------------------------------------------------------------------

MetricsSnapshot
sampleSnapshot()
{
    MetricsRegistry registry;
    registry.counter("cells_total").add(7);
    registry.counter("frames_total").add(3);
    registry.gauge("depth").set(2.5);
    registry.histogram("latency", {0.1, 1.0}).observe(0.05);
    registry.histogram("latency", {0.1, 1.0}).observe(5.0);
    return registry.snapshot();
}

TEST(Telemetry, WorkerTelemetryRoundTrips)
{
    WorkerTelemetry telemetry;
    telemetry.worker = 3;
    telemetry.seq = 11;
    telemetry.finalFrame = true;
    telemetry.metrics = sampleSnapshot();
    FlightEvent flightEvent;
    flightEvent.seq = 5;
    flightEvent.tsMicros = 123.5;
    flightEvent.phase = "assign";
    flightEvent.cell = 2;
    flightEvent.attempt = 1;
    flightEvent.frameSeq = 9;
    telemetry.flight.push_back(flightEvent);
    TraceRecorder::Event traceEvent;
    traceEvent.phase = 'X';
    traceEvent.pid = 1;
    traceEvent.tid = 4;
    traceEvent.tsMicros = 10.0;
    traceEvent.durMicros = 2.0;
    traceEvent.name = "cell 2";
    traceEvent.category = "shard";
    telemetry.trace.push_back(traceEvent);

    const std::string text = serializeWorkerTelemetry(telemetry);
    Result<WorkerTelemetry> parsed = parseWorkerTelemetry(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const WorkerTelemetry &out = parsed.value();
    EXPECT_EQ(out.worker, 3u);
    EXPECT_EQ(out.seq, 11u);
    EXPECT_TRUE(out.finalFrame);
    EXPECT_EQ(counterValue(out.metrics, "cells_total"), 7u);
    ASSERT_EQ(out.metrics.histograms.size(), 1u);
    EXPECT_EQ(out.metrics.histograms[0].count, 2u);
    EXPECT_EQ(out.metrics.histograms[0].counts,
              telemetry.metrics.histograms[0].counts);
    ASSERT_EQ(out.flight.size(), 1u);
    EXPECT_EQ(out.flight[0].phase, "assign");
    EXPECT_EQ(out.flight[0].frameSeq, 9u);
    ASSERT_EQ(out.trace.size(), 1u);
    EXPECT_EQ(out.trace[0].phase, 'X');
    EXPECT_EQ(out.trace[0].name, "cell 2");
    EXPECT_EQ(out.trace[0].durMicros, 2.0);
}

TEST(Telemetry, PostmortemRoundTrips)
{
    PostmortemReport report;
    report.worker = 2;
    report.incident = 4;
    report.reason = "timeout";
    report.signaled = true;
    report.termSignal = 9;
    report.busy = true;
    report.lastCell = 6;
    report.lastAttempt = 1;
    report.telemetryFrames = 12;
    report.lastMetrics = sampleSnapshot();
    FlightEvent flightEvent;
    flightEvent.phase = "stall";
    flightEvent.cell = 6;
    report.flight.push_back(flightEvent);

    const std::string text = serializePostmortem(report);
    Result<PostmortemReport> parsed = parsePostmortem(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const PostmortemReport &out = parsed.value();
    EXPECT_EQ(out.worker, 2u);
    EXPECT_EQ(out.incident, 4u);
    EXPECT_EQ(out.reason, "timeout");
    EXPECT_FALSE(out.exited);
    EXPECT_TRUE(out.signaled);
    EXPECT_EQ(out.termSignal, 9);
    EXPECT_TRUE(out.busy);
    EXPECT_EQ(out.lastCell, 6u);
    EXPECT_EQ(out.telemetryFrames, 12u);
    EXPECT_EQ(counterValue(out.lastMetrics, "frames_total"), 3u);
    ASSERT_EQ(out.flight.size(), 1u);
    EXPECT_EQ(out.flight[0].phase, "stall");
}

/** Two flight events whose every field differs from the other's. */
std::vector<FlightEvent>
goldenFlight()
{
    FlightEvent assign;
    assign.seq = 5;
    assign.tsMicros = 123.5;
    assign.phase = "assign";
    assign.cell = 2;
    assign.attempt = 1;
    assign.frameSeq = 9;
    FlightEvent result;
    result.seq = 6;
    result.tsMicros = 4567.25;
    result.phase = "result";
    result.cell = 3;
    result.attempt = 4;
    result.frameSeq = 10;
    return {assign, result};
}

TEST(Telemetry, WireBytesMatchGolden)
{
    WorkerTelemetry telemetry;
    telemetry.worker = 3;
    telemetry.seq = 11;
    telemetry.finalFrame = true;
    telemetry.metrics = sampleSnapshot();
    telemetry.flight = goldenFlight();
    TraceRecorder::Event span;
    span.phase = 'X';
    span.pid = 102;
    span.tid = 1005;
    span.tsMicros = 10.5;
    span.durMicros = 2.25;
    span.name = "cell 2";
    span.category = "shard";
    span.argKey = "attempt";
    span.argValue = 1.0 / 3.0;
    span.argText = "retry \"late\"";
    TraceRecorder::Event counter;
    counter.phase = 'C';
    counter.pid = 103;
    counter.tid = 1006;
    counter.tsMicros = 12.75;
    counter.durMicros = 0.125;
    counter.name = "buffer";
    counter.category = "sim";
    counter.argKey = "words";
    counter.argValue = 512.0;
    counter.argText = "tile";
    telemetry.trace = {span, counter};
    const std::string text = serializeWorkerTelemetry(telemetry);
    EXPECT_TRUE(matchesGolden(text, "wire_worker_telemetry.json"));
    Result<WorkerTelemetry> parsedTelemetry = parseWorkerTelemetry(text);
    ASSERT_TRUE(parsedTelemetry.ok())
        << parsedTelemetry.error().describe();
    EXPECT_EQ(serializeWorkerTelemetry(parsedTelemetry.value()), text);

    PostmortemReport report;
    report.worker = 2;
    report.incident = 4;
    report.reason = "cell timeout";
    report.exited = true;
    report.exitCode = 11;
    report.signaled = true;
    report.termSignal = 9;
    report.busy = true;
    report.lastCell = 6;
    report.lastAttempt = 7;
    report.telemetryFrames = 12;
    report.lastMetrics = sampleSnapshot();
    report.flight = goldenFlight();
    const std::string dump = serializePostmortem(report);
    EXPECT_TRUE(matchesGolden(dump, "wire_postmortem.json"));
    Result<PostmortemReport> parsedReport = parsePostmortem(dump);
    ASSERT_TRUE(parsedReport.ok()) << parsedReport.error().describe();
    EXPECT_EQ(serializePostmortem(parsedReport.value()), dump);
}

TEST(Telemetry, MetricsDocumentRoundTrips)
{
    const MetricsSnapshot snap = sampleSnapshot();
    const std::string text = metricsDocumentFromSnapshot(snap);
    Result<MetricsSnapshot> parsed = parseMetricsDocument(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(metricsDocumentFromSnapshot(parsed.value()), text);
}

TEST(Telemetry, HistogramBucketCountsRoundTripExactly)
{
    // 2^53 + 1 is the first integer a double cannot hold.
    const std::uint64_t past_double = (std::uint64_t{1} << 53) + 1;
    MetricsSnapshot snap;
    MetricsSnapshot::HistogramValue histogram;
    histogram.name = "latency";
    histogram.bounds = {1.0};
    histogram.counts = {past_double, UINT64_MAX};
    histogram.count = past_double;
    snap.histograms.push_back(histogram);
    const std::string text = metricsDocumentFromSnapshot(snap);
    EXPECT_NE(text.find("9007199254740993"), std::string::npos) << text;
    Result<MetricsSnapshot> parsed = parseMetricsDocument(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    ASSERT_EQ(parsed.value().histograms.size(), 1u);
    EXPECT_EQ(parsed.value().histograms[0].counts, histogram.counts);
    EXPECT_EQ(metricsDocumentFromSnapshot(parsed.value()), text);
}

TEST(Telemetry, HostileBytesFailWithoutCrashing)
{
    const std::string hostile[] = {
        "",
        "not json",
        "42",
        "{}",
        "{\"schema\": \"rana-telemetry-1\"}",
        "{\"schema\": \"wrong\", \"worker\": 0}",
        "{\"schema\": \"rana-telemetry-1\", \"worker\": -3, "
        "\"seq\": 0, \"final\": false, \"metrics\": {}, "
        "\"flight\": [], \"trace\": []}",
        "{\"schema\": \"rana-telemetry-1\", \"worker\": 0, "
        "\"seq\": 0, \"final\": false, \"metrics\": "
        "{\"counters\": {}, \"gauges\": {}, \"histograms\": "
        "{\"h\": {\"bounds\": [1], \"counts\": [1], \"sum\": 0, "
        "\"count\": 1}}}, \"flight\": [], \"trace\": []}",
        // Bucket counts travel as exact u64; a double, a sentinel
        // or a value past u64 range must fail.
        "{\"schema\": \"rana-telemetry-1\", \"worker\": 0, "
        "\"seq\": 0, \"final\": false, \"metrics\": "
        "{\"counters\": {}, \"gauges\": {}, \"histograms\": "
        "{\"h\": {\"bounds\": [1], \"counts\": [1e300, 0], "
        "\"sum\": 0, \"count\": 1}}}, \"flight\": [], \"trace\": []}",
        "{\"schema\": \"rana-telemetry-1\", \"worker\": 0, "
        "\"seq\": 0, \"final\": false, \"metrics\": "
        "{\"counters\": {}, \"gauges\": {}, \"histograms\": "
        "{\"h\": {\"bounds\": [1], \"counts\": [\"Infinity\", 0], "
        "\"sum\": 0, \"count\": 1}}}, \"flight\": [], \"trace\": []}",
    };
    for (const std::string &text : hostile) {
        EXPECT_FALSE(parseWorkerTelemetry(text).ok())
            << "accepted: " << text;
        EXPECT_FALSE(parsePostmortem(text).ok())
            << "accepted: " << text;
    }

    // An integer that does not fit its field fails instead of
    // wrapping: u32 fields stop at 2^32 - 1, int fields at 2^31 - 1.
    WorkerTelemetry telemetry;
    telemetry.flight = goldenFlight();
    telemetry.trace.resize(1);
    const std::string frame = serializeWorkerTelemetry(telemetry);
    ASSERT_TRUE(parseWorkerTelemetry(frame).ok());
    const std::pair<const char *, const char *> badFrame[] = {
        {"worker", "4294967297"}, {"cell", "4294967298"},
        {"attempt", "4294967296"}, {"pid", "4294967296"},
        {"pid", "2147483648"},    {"tid", "2147483648"},
    };
    for (const auto &[key, value] : badFrame) {
        EXPECT_FALSE(parseWorkerTelemetry(
                         replaceNumberAfter(frame, key, value))
                         .ok())
            << key << " = " << value;
    }
    PostmortemReport report;
    report.flight = goldenFlight();
    const std::string dump = serializePostmortem(report);
    ASSERT_TRUE(parsePostmortem(dump).ok());
    const std::pair<const char *, const char *> badDump[] = {
        {"worker", "4294967297"},    {"exit_code", "2147483648"},
        {"term_signal", "4294967305"}, {"cell", "4294967298"},
    };
    for (const auto &[key, value] : badDump) {
        EXPECT_FALSE(
            parsePostmortem(replaceNumberAfter(dump, key, value)).ok())
            << key << " = " << value;
    }
}

// --------------------------------------------------------------------
// Snapshot algebra (the rana_obs core).
// --------------------------------------------------------------------

MetricsSnapshot
namedSnapshot(std::uint64_t cells, double depth)
{
    MetricsRegistry registry;
    registry.counter("cells_total").add(cells);
    registry.gauge("depth").set(depth);
    registry.histogram("latency", {0.1, 1.0}).observe(0.05);
    return registry.snapshot();
}

TEST(RanaObs, MergeAddsCountersMaxesGaugesAddsHistograms)
{
    const MetricsSnapshot merged = mergeSnapshots(
        {namedSnapshot(3, 1.5), namedSnapshot(4, 7.25)});
    EXPECT_EQ(counterValue(merged, "cells_total"), 7u);
    ASSERT_EQ(merged.gauges.size(), 1u);
    EXPECT_EQ(merged.gauges[0].value, 7.25);
    ASSERT_EQ(merged.histograms.size(), 1u);
    EXPECT_EQ(merged.histograms[0].count, 2u);
    EXPECT_EQ(merged.histograms[0].counts[0], 2u);
}

TEST(RanaObs, MergeKeepsFirstHistogramOnBoundsMismatch)
{
    MetricsRegistry a;
    a.histogram("h", {1.0}).observe(0.5);
    MetricsRegistry b;
    b.histogram("h", {1.0, 2.0}).observe(0.5);
    const MetricsSnapshot merged =
        mergeSnapshots({a.snapshot(), b.snapshot()});
    ASSERT_EQ(merged.histograms.size(), 1u);
    EXPECT_EQ(merged.histograms[0].bounds.size(), 1u);
    EXPECT_EQ(merged.histograms[0].count, 1u);
}

TEST(RanaObs, DiffOfIdenticalSnapshotsIsEmpty)
{
    const MetricsSnapshot snap = namedSnapshot(3, 1.5);
    EXPECT_TRUE(diffSnapshots(snap, snap, false, {}).empty());
}

TEST(RanaObs, DiffReportsEveryKindAndTreatsMissingAsZero)
{
    const MetricsSnapshot a = namedSnapshot(3, 1.5);
    MetricsSnapshot b = namedSnapshot(5, 2.5);
    b.histograms.clear();
    const std::vector<SnapshotDiffEntry> entries =
        diffSnapshots(a, b, false, {});
    ASSERT_EQ(entries.size(), 4u);
    // Sorted by name then kind: cells_total, depth, latency x2.
    EXPECT_EQ(entries[0].kind, "counter");
    EXPECT_EQ(entries[0].name, "cells_total");
    EXPECT_EQ(entries[0].a, 3.0);
    EXPECT_EQ(entries[0].b, 5.0);
    EXPECT_EQ(entries[1].kind, "gauge");
    EXPECT_EQ(entries[2].kind, "histogram_count");
    EXPECT_EQ(entries[2].b, 0.0);
    EXPECT_EQ(entries[3].kind, "histogram_sum");
}

TEST(RanaObs, DiffCountersOnlyAndIgnoreFilter)
{
    const MetricsSnapshot a = namedSnapshot(3, 1.5);
    const MetricsSnapshot b = namedSnapshot(5, 2.5);
    const std::vector<SnapshotDiffEntry> counters =
        diffSnapshots(a, b, true, {});
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].kind, "counter");
    EXPECT_TRUE(diffSnapshots(a, b, true, {"cells"}).empty());
}

} // namespace
} // namespace rana
