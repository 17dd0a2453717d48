/**
 * @file
 * Implementation of the metrics registry.
 */

#include "obs/metrics_registry.hh"

#include <algorithm>
#include <bit>

#include "util/json_writer.hh"
#include "util/logging.hh"

namespace rana {

namespace {

/** Next shard slot handed to a new thread. */
std::atomic<std::size_t> nextThreadSlot{0};

} // namespace

std::size_t
MetricsRegistry::threadShard()
{
    thread_local const std::size_t slot =
        nextThreadSlot.fetch_add(1, std::memory_order_relaxed) %
        kShards;
    return slot;
}

std::uint64_t
MetricsRegistry::Counter::value() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.value.load(std::memory_order_relaxed);
    return total;
}

void
MetricsRegistry::Gauge::setMax(double value)
{
    double seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

MetricsRegistry::Histogram::Histogram(std::string name,
                                      std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      shards_(kShards)
{
    RANA_ASSERT(!bounds_.empty(),
                "histogram needs at least one bucket bound: ", name_);
    RANA_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must ascend: ", name_);
    for (Shard &shard : shards_) {
        shard.buckets =
            std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    }
}

void
MetricsRegistry::Histogram::observe(double value)
{
    // Bounds are inclusive upper bounds, so the bucket is the first
    // bound >= value; everything past the last bound overflows into
    // the implicit bucket at index bounds_.size().
    const auto index = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    Shard &shard = shards_[threadShard()];
    shard.buckets[index].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    // Accumulate the sum through a CAS loop on the bit pattern:
    // atomic<double>::fetch_add is C++20 but spotty in older
    // libstdc++ builds, and the bit-cast loop is TSan-clean.
    std::uint64_t seen =
        shard.sumBits.load(std::memory_order_relaxed);
    for (;;) {
        const double updated = std::bit_cast<double>(seen) + value;
        if (shard.sumBits.compare_exchange_weak(
                seen, std::bit_cast<std::uint64_t>(updated),
                std::memory_order_relaxed)) {
            break;
        }
    }
}

void
MetricsRegistry::Histogram::accumulate(
    const std::vector<std::uint64_t> &counts, double sum)
{
    RANA_ASSERT(counts.size() == bounds_.size() + 1,
                "histogram accumulate bucket mismatch: ", name_);
    Shard &shard = shards_[threadShard()];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        shard.buckets[i].fetch_add(counts[i],
                                   std::memory_order_relaxed);
        total += counts[i];
    }
    shard.count.fetch_add(total, std::memory_order_relaxed);
    std::uint64_t seen =
        shard.sumBits.load(std::memory_order_relaxed);
    for (;;) {
        const double updated = std::bit_cast<double>(seen) + sum;
        if (shard.sumBits.compare_exchange_weak(
                seen, std::bit_cast<std::uint64_t>(updated),
                std::memory_order_relaxed)) {
            break;
        }
    }
}

std::vector<std::uint64_t>
MetricsRegistry::Histogram::counts() const
{
    std::vector<std::uint64_t> totals(bounds_.size() + 1, 0);
    for (const Shard &shard : shards_) {
        for (std::size_t i = 0; i < totals.size(); ++i) {
            totals[i] +=
                shard.buckets[i].load(std::memory_order_relaxed);
        }
    }
    return totals;
}

std::uint64_t
MetricsRegistry::Histogram::count() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.count.load(std::memory_order_relaxed);
    return total;
}

double
MetricsRegistry::Histogram::sum() const
{
    double total = 0.0;
    for (const Shard &shard : shards_) {
        total += std::bit_cast<double>(
            shard.sumBits.load(std::memory_order_relaxed));
    }
    return total;
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(name, std::unique_ptr<Counter>(
                                    new Counter(name)))
                 .first;
    }
    return *it->second;
}

MetricsRegistry::Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_
                 .emplace(name,
                          std::unique_ptr<Gauge>(new Gauge(name)))
                 .first;
    }
    return *it->second;
}

MetricsRegistry::Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, std::unique_ptr<Histogram>(
                                    new Histogram(name, bounds)))
                 .first;
    }
    return *it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap.counters.reserve(counters_.size());
        for (const auto &[name, counter] : counters_)
            snap.counters.push_back({name, counter->value()});
        snap.gauges.reserve(gauges_.size());
        for (const auto &[name, gauge] : gauges_)
            snap.gauges.push_back({name, gauge->value()});
        snap.histograms.reserve(histograms_.size());
        for (const auto &[name, histogram] : histograms_) {
            snap.histograms.push_back(
                {name, histogram->bounds(), histogram->counts(),
                 histogram->sum(), histogram->count()});
        }
    }
    const auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_) {
        for (Counter::Shard &shard : counter->shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }
    for (auto &[name, gauge] : gauges_)
        gauge->value_.store(0.0, std::memory_order_relaxed);
    for (auto &[name, histogram] : histograms_) {
        for (Histogram::Shard &shard : histogram->shards_) {
            for (auto &bucket : shard.buckets)
                bucket.store(0, std::memory_order_relaxed);
            shard.count.store(0, std::memory_order_relaxed);
            shard.sumBits.store(0, std::memory_order_relaxed);
        }
    }
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked on purpose: instrument handles are cached in static
    // storage all over the library and must stay valid during
    // static destruction. Still reachable, so LSan stays quiet.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

const std::vector<double> &
spanSecondsBounds()
{
    static const std::vector<double> bounds = {
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
    return bounds;
}

namespace {

/** The "log_<level>_total" counter names, in LogLevel order. */
constexpr const char *kLogCounterNames[] = {
    "log_inform_total",
    "log_warn_total",
    "log_fatal_total",
    "log_panic_total",
};

/** Merge the process log-call counters into a snapshot. */
void
appendLogCounters(MetricsSnapshot &snap)
{
    for (std::size_t i = 0; i < 4; ++i) {
        snap.counters.push_back(
            {kLogCounterNames[i],
             logMessageCount(static_cast<LogLevel>(i))});
    }
    std::sort(snap.counters.begin(), snap.counters.end(),
              [](const auto &a, const auto &b) {
                  return a.name < b.name;
              });
}

} // namespace

void
writeSnapshotMembers(JsonWriter &json, const MetricsSnapshot &snap)
{
    json.beginObject("counters");
    for (const auto &counter : snap.counters)
        json.field(counter.name, counter.value);
    json.endObject();
    json.beginObject("gauges");
    for (const auto &gauge : snap.gauges)
        json.field(gauge.name, gauge.value);
    json.endObject();
    json.beginObject("histograms");
    for (const auto &histogram : snap.histograms) {
        json.beginObject(histogram.name);
        json.beginArray("bounds");
        for (double bound : histogram.bounds)
            json.element(bound);
        json.endArray();
        json.beginArray("counts");
        for (std::uint64_t count : histogram.counts)
            json.element(count);
        json.endArray();
        json.field("sum", histogram.sum);
        json.field("count", histogram.count);
        json.endObject();
    }
    json.endObject();
}

void
writeMetricsObject(JsonWriter &json, const std::string &key,
                   const MetricsRegistry &registry)
{
    MetricsSnapshot snap = registry.snapshot();
    appendLogCounters(snap);
    json.beginObject(key);
    writeSnapshotMembers(json, snap);
    json.endObject();
}

std::string
metricsJsonDocument(const MetricsRegistry &registry)
{
    MetricsSnapshot snap = registry.snapshot();
    appendLogCounters(snap);
    JsonWriter json;
    json.beginObject();
    json.field("schema", "rana-metrics-1");
    writeSnapshotMembers(json, snap);
    json.endObject();
    return json.str();
}

} // namespace rana
