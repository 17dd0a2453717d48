#include "trace.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "stats.hh"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::int64_t
Tracer::begin(const char *name, std::uint64_t op, std::int64_t parent)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = parent;
    span.start = now();
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::end(std::int64_t index)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].end = now();
}

std::string
Tracer::json() const
{
    std::ostringstream out;
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\": " << i
            << ", \"name\": \"" << span.name << "\", \"op\": " << span.op
            << ", \"parent\": " << span.parent
            << ", \"start_s\": " << exact(span.start)
            << ", \"end_s\": " << exact(span.end) << "}";
    }
    out << "\n]}\n";
    return out.str();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        const Span &parent = spans[static_cast<std::size_t>(span.parent)];
        const double start = std::max(span.start, parent.start);
        const double end = std::min(span.end, parent.end);
        if (end > start)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                start, end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &cover = children[i];
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (const auto &[start, end] : cover) {
            const double from = std::max(start, reach);
            if (end > from) {
                covered += end - from;
                reach = end;
            }
        }
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

Attribution
attribute(const std::vector<Span> &spans, const std::string &op_name)
{
    const std::vector<double> self = selfTimes(spans);
    // Root of each span; parents precede their children.
    std::vector<std::size_t> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        root[i] = spans[i].parent < 0
                      ? i
                      : root[static_cast<std::size_t>(spans[i].parent)];
    Attribution result;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[root[i]].name != op_name)
            continue;
        const double duration = spans[i].end - spans[i].start;
        if (root[i] == i) {
            result.opSeconds += duration;
            result.unattributedSeconds += self[i];
            continue;
        }
        LayerTime &layer = result.layers[spans[i].name];
        layer.totalSeconds += duration;
        layer.selfSeconds += self[i];
    }
    return result;
}

} // namespace perfbench
