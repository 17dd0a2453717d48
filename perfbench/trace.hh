/**
 * @file
 * In-memory span recorder of the traced run and the attribution of
 * op time to layers.
 *
 * Spans are recorded from the benchmark's own files around each
 * public library call, kept in memory and written out when the run
 * ends. A disabled tracer records nothing, so the untraced run that
 * measures the end-to-end metrics pays one branch per span.
 */
#ifndef PERFBENCH_TRACE_HH_
#define PERFBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are seconds since the tracer started. */
struct Span
{
    std::string name;
    /** Op the span belongs to. */
    std::uint64_t op = 0;
    /** Index of the parent span, or -1 for a root. */
    std::int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    /** Open a span; returns its index (-1 when disabled). */
    std::int64_t begin(const char *name, std::uint64_t op,
                       std::int64_t parent);
    /** Close the span `index` opened. */
    void end(std::int64_t index);
    const std::vector<Span> &spans() const { return spans_; }
    /** The spans as a JSON document. */
    std::string json() const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t op,
               std::int64_t parent = -1)
        : tracer_(tracer), index_(tracer.begin(name, op, parent))
    {
    }
    ~ScopedSpan() { tracer_.end(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return index_; }

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

/** Time attributed to one span name. */
struct LayerTime
{
    /** Summed span durations. */
    double totalSeconds = 0.0;
    /** Summed durations minus the parts covered by child spans. */
    double selfSeconds = 0.0;
};

/** Where the op time of a traced run went. */
struct Attribution
{
    /** Summed duration of the root spans named `op_name`. */
    double opSeconds = 0.0;
    /** Self time of the op spans: covered by no layer span. */
    double unattributedSeconds = 0.0;
    /** Every span name below an op root. */
    std::map<std::string, LayerTime> layers;
};

/**
 * Attribute the time of the root spans named `op_name` to their
 * descendants by self time. Spans under other roots (set-up) are
 * left out.
 */
Attribution attribute(const std::vector<Span> &spans,
                      const std::string &op_name = "op");

/** Self time of every span, by index (duration minus child cover). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH_
