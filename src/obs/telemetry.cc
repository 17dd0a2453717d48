/**
 * @file
 * Implementation of the cross-process telemetry schemas and the
 * snapshot algebra.
 */

#include "obs/telemetry.hh"

#include <algorithm>
#include <map>

#include "util/json_fields.hh"

namespace rana {

namespace {

constexpr const char *kTelemetrySchema = "rana-telemetry-1";
constexpr const char *kPostmortemSchema = "rana-postmortem-1";
constexpr const char *kMetricsSchema = "rana-metrics-1";

template <typename Vector>
void
sortByName(Vector &values)
{
    std::sort(values.begin(), values.end(),
              [](const auto &a, const auto &b) {
                  return a.name < b.name;
              });
}

} // namespace

// --------------------------------------------------------------------
// Metrics snapshot members.
// --------------------------------------------------------------------

Result<MetricsSnapshot>
parseSnapshotMembers(const JsonValue &object)
{
    const auto missing = [](const char *key) {
        return fieldError("metrics snapshot", key);
    };
    MetricsSnapshot snap;
    const JsonValue *counters = object.find("counters");
    if (counters == nullptr || !counters->isObject())
        return missing("counters");
    for (const auto &[name, value] : counters->members()) {
        std::uint64_t out = 0;
        if (!value.asUint(&out))
            return missing("counters[]");
        snap.counters.push_back({name, out});
    }
    const JsonValue *gauges = object.find("gauges");
    if (gauges == nullptr || !gauges->isObject())
        return missing("gauges");
    for (const auto &[name, value] : gauges->members()) {
        double out = 0.0;
        if (!value.numberOrSentinel(&out))
            return missing("gauges[]");
        snap.gauges.push_back({name, out});
    }
    const JsonValue *histograms = object.find("histograms");
    if (histograms == nullptr || !histograms->isObject())
        return missing("histograms");
    for (const auto &[name, value] : histograms->members()) {
        if (!value.isObject())
            return missing("histograms[]");
        MetricsSnapshot::HistogramValue histogram;
        histogram.name = name;
        JsonFieldReader reader(value, "metrics snapshot");
        reader.field("bounds", histogram.bounds);
        reader.field("counts", histogram.counts);
        reader.field("sum", histogram.sum);
        reader.field("count", histogram.count);
        if (reader.error())
            return *reader.error();
        if (histogram.counts.size() != histogram.bounds.size() + 1)
            return missing("counts (bucket arity)");
        snap.histograms.push_back(std::move(histogram));
    }
    sortByName(snap.counters);
    sortByName(snap.gauges);
    sortByName(snap.histograms);
    return snap;
}

Result<MetricsSnapshot>
parseMetricsDocument(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &object = parsed.value();
    if (!object.isObject()) {
        return makeError(ErrorCode::ParseError,
                         "metrics document is not a JSON object");
    }
    JsonFieldReader reader(object, "metrics document");
    reader.schema(kMetricsSchema);
    if (reader.error())
        return *reader.error();
    return parseSnapshotMembers(object);
}

std::string
metricsDocumentFromSnapshot(const MetricsSnapshot &snap)
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", kMetricsSchema);
    writeSnapshotMembers(json, snap);
    json.endObject();
    return json.str();
}

// --------------------------------------------------------------------
// Telemetry frame payloads and postmortem dumps: one field list per
// record, read and written by util/json_fields.
// --------------------------------------------------------------------

void
visitFields(auto &v, FieldsOf<FlightEvent> auto &event)
{
    v.field("seq", event.seq);
    v.field("ts_micros", event.tsMicros);
    v.field("phase", event.phase);
    v.field("cell", event.cell);
    v.field("attempt", event.attempt);
    v.field("frame_seq", event.frameSeq);
}

void
visitFields(auto &v, FieldsOf<TraceRecorder::Event> auto &event)
{
    v.field("ph", event.phase);
    v.field("pid", event.pid);
    v.field("tid", event.tid);
    v.field("ts", event.tsMicros);
    v.field("dur", event.durMicros);
    v.field("name", event.name);
    v.field("cat", event.category);
    v.field("arg_key", event.argKey);
    v.field("arg_value", event.argValue);
    v.field("arg_text", event.argText);
}

void
visitFields(auto &v, FieldsOf<WorkerTelemetry> auto &telemetry)
{
    v.schema(kTelemetrySchema);
    v.field("worker", telemetry.worker);
    v.field("seq", telemetry.seq);
    v.field("final", telemetry.finalFrame);
    v.members("metrics", telemetry.metrics, writeSnapshotMembers,
              parseSnapshotMembers);
    v.field("flight", telemetry.flight);
    v.field("trace", telemetry.trace);
}

void
visitFields(auto &v, FieldsOf<PostmortemReport> auto &report)
{
    v.schema(kPostmortemSchema);
    v.field("worker", report.worker);
    v.field("incident", report.incident);
    v.field("reason", report.reason);
    v.field("exited", report.exited);
    v.field("exit_code", report.exitCode);
    v.field("signaled", report.signaled);
    v.field("term_signal", report.termSignal);
    v.field("busy", report.busy);
    v.field("last_cell", report.lastCell);
    v.field("last_attempt", report.lastAttempt);
    v.field("telemetry_frames", report.telemetryFrames);
    v.members("metrics", report.lastMetrics, writeSnapshotMembers,
              parseSnapshotMembers);
    v.field("flight", report.flight);
}

std::string
serializeWorkerTelemetry(const WorkerTelemetry &telemetry)
{
    return writeJsonRecord(telemetry);
}

Result<WorkerTelemetry>
parseWorkerTelemetry(const std::string &text)
{
    return parseJsonRecord<WorkerTelemetry>(text, "telemetry");
}

std::string
serializePostmortem(const PostmortemReport &report)
{
    return writeJsonRecord(report);
}

Result<PostmortemReport>
parsePostmortem(const std::string &text)
{
    return parseJsonRecord<PostmortemReport>(text, "postmortem");
}

// --------------------------------------------------------------------
// Snapshot algebra.
// --------------------------------------------------------------------

MetricsSnapshot
mergeSnapshots(const std::vector<MetricsSnapshot> &snapshots)
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, MetricsSnapshot::HistogramValue>
        histograms;
    for (const MetricsSnapshot &snap : snapshots) {
        for (const auto &counter : snap.counters)
            counters[counter.name] += counter.value;
        for (const auto &gauge : snap.gauges) {
            auto [it, inserted] =
                gauges.emplace(gauge.name, gauge.value);
            if (!inserted)
                it->second = std::max(it->second, gauge.value);
        }
        for (const auto &histogram : snap.histograms) {
            auto [it, inserted] =
                histograms.emplace(histogram.name, histogram);
            if (inserted)
                continue;
            MetricsSnapshot::HistogramValue &merged = it->second;
            if (merged.bounds != histogram.bounds)
                continue; // incompatible buckets: first wins
            for (std::size_t i = 0; i < merged.counts.size(); ++i)
                merged.counts[i] += histogram.counts[i];
            merged.sum += histogram.sum;
            merged.count += histogram.count;
        }
    }
    MetricsSnapshot merged;
    for (const auto &[name, value] : counters)
        merged.counters.push_back({name, value});
    for (const auto &[name, value] : gauges)
        merged.gauges.push_back({name, value});
    for (const auto &[name, value] : histograms)
        merged.histograms.push_back(value);
    return merged;
}

namespace {

bool
ignored(const std::string &name,
        const std::vector<std::string> &ignoreSubstrings)
{
    for (const std::string &needle : ignoreSubstrings) {
        if (name.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

template <typename Value, typename Extract>
void
diffByName(const std::vector<Value> &a, const std::vector<Value> &b,
           const std::string &kind,
           const std::vector<std::string> &ignoreSubstrings,
           const Extract &extract,
           std::vector<SnapshotDiffEntry> *out)
{
    std::map<std::string, double> left;
    std::map<std::string, double> right;
    for (const Value &value : a)
        left[value.name] = extract(value);
    for (const Value &value : b)
        right[value.name] = extract(value);
    for (const auto &[name, valueA] : left) {
        if (ignored(name, ignoreSubstrings))
            continue;
        const auto it = right.find(name);
        const double valueB = it == right.end() ? 0.0 : it->second;
        if (valueA != valueB)
            out->push_back({kind, name, valueA, valueB});
    }
    for (const auto &[name, valueB] : right) {
        if (ignored(name, ignoreSubstrings))
            continue;
        if (left.find(name) == left.end() && valueB != 0.0)
            out->push_back({kind, name, 0.0, valueB});
    }
}

} // namespace

std::vector<SnapshotDiffEntry>
diffSnapshots(const MetricsSnapshot &a, const MetricsSnapshot &b,
              bool countersOnly,
              const std::vector<std::string> &ignoreSubstrings)
{
    std::vector<SnapshotDiffEntry> entries;
    diffByName(
        a.counters, b.counters, "counter", ignoreSubstrings,
        [](const MetricsSnapshot::CounterValue &value) {
            return static_cast<double>(value.value);
        },
        &entries);
    if (!countersOnly) {
        diffByName(
            a.gauges, b.gauges, "gauge", ignoreSubstrings,
            [](const MetricsSnapshot::GaugeValue &value) {
                return value.value;
            },
            &entries);
        diffByName(
            a.histograms, b.histograms, "histogram_count",
            ignoreSubstrings,
            [](const MetricsSnapshot::HistogramValue &value) {
                return static_cast<double>(value.count);
            },
            &entries);
        diffByName(
            a.histograms, b.histograms, "histogram_sum",
            ignoreSubstrings,
            [](const MetricsSnapshot::HistogramValue &value) {
                return value.sum;
            },
            &entries);
    }
    std::sort(entries.begin(), entries.end(),
              [](const SnapshotDiffEntry &x,
                 const SnapshotDiffEntry &y) {
                  if (x.name != y.name)
                      return x.name < y.name;
                  return x.kind < y.kind;
              });
    return entries;
}

std::uint64_t
counterValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &counter : snap.counters) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

bool
hasCounter(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &counter : snap.counters) {
        if (counter.name == name)
            return true;
    }
    return false;
}

} // namespace rana
