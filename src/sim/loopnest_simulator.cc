/**
 * @file
 * Implementation of the loop-nest trace simulator.
 */

#include "sim/loopnest_simulator.hh"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <type_traits>
#include <utility>

#include "obs/metrics_registry.hh"
#include "sim/pe_array_model.hh"
#include "util/logging.hh"

namespace rana {

namespace {

constexpr std::size_t kInput = static_cast<std::size_t>(DataType::Input);
constexpr std::size_t kOutput =
    static_cast<std::size_t>(DataType::Output);
constexpr std::size_t kWeight =
    static_cast<std::size_t>(DataType::Weight);

/** Registry instruments for simulator progress (created once). */
struct SimMetrics
{
    MetricsRegistry::Counter &layers;
    MetricsRegistry::Counter &tiles;
    MetricsRegistry::Counter &tilesFastForwarded;
    MetricsRegistry::Gauge &banksInUse;
    MetricsRegistry::Gauge &banksInUsePeak;

    static SimMetrics &
    get()
    {
        static SimMetrics *metrics = new SimMetrics{
            MetricsRegistry::global().counter(
                "sim_layers_simulated_total"),
            MetricsRegistry::global().counter(
                "sim_tiles_simulated_total"),
            MetricsRegistry::global().counter(
                "sim_tiles_fast_forwarded_total"),
            MetricsRegistry::global().gauge("sim_banks_in_use"),
            MetricsRegistry::global().gauge("sim_banks_in_use_peak"),
        };
        return *metrics;
    }
};

} // namespace

LoopNestSimulator::LoopNestSimulator(const AcceleratorConfig &config,
                                     RefreshPolicy policy,
                                     double interval_seconds)
    : config_(config),
      policy_(policy),
      interval_(interval_seconds),
      controller_(config.buffer, policy, config.frequencyHz,
                  interval_seconds)
{
    // Forward divider ticks to the trace sink so the timeline shows
    // refresh activity alongside compute (emit() drops the event
    // when no sink is attached).
    controller_.setPulseListener(
        [this](double when, std::uint64_t words) {
            emit(TraceEventKind::RefreshPulse, when, DataType::Input,
                 words, 0);
        });
}

std::uint64_t
LoopNestSimulator::totalRefreshOps() const
{
    return controller_.refreshOps();
}

std::uint64_t
LoopNestSimulator::totalViolations() const
{
    return controller_.violations();
}

void
LoopNestSimulator::emit(TraceEventKind kind, double seconds,
                        DataType type, std::uint64_t words,
                        std::uint64_t tile_index)
{
    if (trace_ != nullptr) {
        TraceEvent event;
        event.kind = kind;
        event.seconds = seconds;
        event.type = type;
        event.words = words;
        event.tileIndex = tile_index;
        trace_->onEvent(event);
    }
}

LayerSimResult
LoopNestSimulator::runLayer(const ConvLayerSpec &layer,
                            const LayerAnalysis &analysis)
{
    return runLayerChecked(layer, analysis).valueOrDie();
}

Result<LayerSimResult>
LoopNestSimulator::runLayerChecked(const ConvLayerSpec &layer,
                                   const LayerAnalysis &analysis)
{
    if (!analysis.feasible) {
        return makeError(ErrorCode::InvalidArgument,
                         "cannot simulate layer ", layer.name,
                         ": the analysis is infeasible");
    }
    const DataflowSpec &spec = analysis.spec();
    if (spec.systolic)
        return runLayerSystolic(layer, analysis);
    const DataflowKind kind = spec.kind;
    const Tiling &t = analysis.tiling;
    const TileSizes tiles = tileSizes(layer, t);
    const TripCounts trips = tripCounts(layer, t);
    const TileTiming timing = tileTiming(config_, layer, t);
    const auto &order = spec.order;
    const std::uint64_t trip0 = tripOf(trips, order[0]);
    const std::uint64_t trip1 = tripOf(trips, order[1]);
    const std::uint64_t trip2 = tripOf(trips, order[2]);

    const double layer_start = now_;
    // Injected timing faults stretch each tile and stall each outer
    // scan. At the default TimingFaults both terms are exact float
    // no-ops (x*1.0 and x+0.0), keeping fault-free timing
    // bit-identical to the analytical model.
    const double t_tile = faults_.tileSeconds(timing.seconds);
    const double stall = faults_.scanStallSeconds;
    const double t1 = static_cast<double>(trip2) * t_tile;
    const double t2 = static_cast<double>(trip1) * t1;

    // Layer configuration load: allocation and refresh flags from
    // the analysis (the compiled layerwise configuration).
    const LayerRefreshDemand demand = refreshDemand(config_, analysis);
    const auto flags = refreshFlagsForLayer(demand, interval_);
    const bool gate_on = flags[0] || flags[1] || flags[2];
    const std::uint64_t refresh_before = controller_.refreshOps();
    const std::uint64_t violations_before = controller_.violations();
    const std::uint64_t guard_trips_before =
        guard_ != nullptr ? guard_->stats().trips : 0;
    controller_.beginLayer(demand.allocation, flags, gate_on,
                           layer_start);
    if (trace_ != nullptr)
        trace_->onLayerBegin(layer.name);
    emit(TraceEventKind::LayerBegin, layer_start, DataType::Input, 0,
         0);
    const std::uint64_t banks_in_use =
        config_.buffer.numBanks - demand.allocation.unusedBanks;
    emit(TraceEventKind::BankOccupancy, layer_start, DataType::Input,
         banks_in_use, 0);
    SimMetrics &sim_metrics = SimMetrics::get();
    sim_metrics.banksInUse.set(static_cast<double>(banks_in_use));
    sim_metrics.banksInUsePeak.setMax(
        static_cast<double>(banks_in_use));

    // Per-type staging times following the dataflow's natural
    // residency; fully streamed types are always freshly staged.
    const std::array<double, numDataTypes> phi = {
        analysis.types[kInput].residentFraction,
        analysis.types[kOutput].residentFraction,
        analysis.types[kWeight].residentFraction,
    };
    double input_write = layer_start;
    double weight_write = layer_start;
    controller_.onWrite(DataType::Input, layer_start);
    controller_.onWrite(DataType::Weight, layer_start);
    controller_.onWrite(DataType::Output, layer_start);

    // Event tallies.
    double core_load_in = 0.0;
    double core_load_w = 0.0;
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    double natural_in_reads = 0.0;
    double natural_out_writes = 0.0;
    std::array<double, numDataTypes> max_age = {0.0, 0.0, 0.0};

    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);
    const std::uint64_t th = layer.inputPatchH(t.tr);
    const std::uint64_t tl = layer.inputPatchW(t.tc);

    // Natural (fully resident) input fill: once for ID/OD and for
    // WD with promoted inputs, one halo patch per RC scan for plain
    // WD (tallied inside the loop).
    if (kind != DataflowKind::WD || analysis.inputsPromoted)
        natural_in_reads = static_cast<double>(layer.inputWords());

    auto observe_read = [&](DataType type, double now,
                            double write_time) {
        controller_.onRead(type, now, write_time);
        max_age[static_cast<std::size_t>(type)] =
            std::max(max_age[static_cast<std::size_t>(type)],
                     now - write_time);
    };

    // Tile `tile` of an outer scan starts at run_base + tile * t_tile
    // and makes its last access at its end, one t_tile later.
    auto tile_start = [&](double run_base, std::uint64_t tile) {
        return run_base + static_cast<double>(tile) * t_tile;
    };

    // Walks tiles [tile_index, end) of the innermost (trip2) run that
    // ends before tile run_end. Walked tile by tile, each tile asks the
    // controller to advance its clock, test its reads and record its
    // writes. A quiet walk fast-forwards instead: it stops before the
    // first tile a refresh event may fall in, its reads run the
    // controller's stale test from one snapshot, its writes change
    // nothing (every type was written at layer start), and the clock
    // jumps once to its last tile's end. Both walks evaluate the same
    // per-tile expressions, so results match bit for bit.
    std::uint64_t tile_index = 0;
    auto run_tiles = [&](auto quiet, std::uint64_t i0, double run_base,
                         std::uint64_t end, std::uint64_t run_end) {
        constexpr bool kQuiet = decltype(quiet)::value;
        const std::uint64_t first = tile_index;
        std::array<RefreshControllerSim::StaleTest, numDataTypes> test;
        if constexpr (kQuiet) {
            const RefreshControllerSim::EventHorizon horizon =
                controller_.eventHorizon();
            const auto tiles_left = std::views::iota(first, end);
            const auto due = std::ranges::partition_point(
                tiles_left, [&](std::uint64_t tile) {
                    return !horizon.dueBy(tile_start(run_base, tile) +
                                          t_tile);
                });
            end = first + static_cast<std::uint64_t>(
                              due - tiles_left.begin());
            if (end == first)
                return;
            for (std::size_t i = 0; i < numDataTypes; ++i)
                test[i] = controller_.staleTest(static_cast<DataType>(i));
        }
        std::uint64_t stale = 0;
        auto read = [&](DataType type, double now, double write_time) {
            if constexpr (kQuiet) {
                const auto i = static_cast<std::size_t>(type);
                stale += test[i].stale(now, write_time) ? 1 : 0;
                max_age[i] = std::max(max_age[i], now - write_time);
            } else {
                observe_read(type, now, write_time);
            }
        };
        for (std::uint64_t tile = first; tile < end; ++tile) {
            const double t_start = tile_start(run_base, tile);
            const double t_end = t_start + t_tile;
            auto event = [&](TraceEventKind event_kind, double when,
                             DataType type, std::uint64_t words) {
                if constexpr (!kQuiet)
                    emit(event_kind, when, type, words, tile);
            };
            auto write = [&](DataType type, double now) {
                if constexpr (!kQuiet)
                    controller_.onWrite(type, now);
            };

            // OD partial sums reload at the tile start: on every pass
            // of Loop N but the first, the tile re-read now was
            // written one full Loop-N pass (t2) ago.
            if (kind == DataflowKind::OD && i0 > 0) {
                partial_reload_out += tile_out;
                // One full Loop-N pass ago, plus the one scan stall
                // inserted between the two passes.
                read(DataType::Output, t_start,
                     phi[kOutput] > 0.0 ? t_start - t2 - stall : t_start);
                event(TraceEventKind::PartialReload, t_start,
                      DataType::Output, tiles.output);
            }

            // Inputs stream buffer -> core every tile.
            core_load_in += tile_in;
            read(DataType::Input, t_end,
                 phi[kInput] > 0.0 ? input_write : t_start);
            event(TraceEventKind::CoreLoad, t_start, DataType::Input,
                  tiles.input);

            if (kind != DataflowKind::OD) {
                // Loop N innermost: weights re-read per tile.
                core_load_w += tile_w;
                read(DataType::Weight, t_end,
                     phi[kWeight] > 0.0 ? weight_write : t_start);
                event(TraceEventKind::CoreLoad, t_start,
                      DataType::Weight, tiles.weight);
            }
            event(TraceEventKind::TileCompute, t_end, DataType::Input,
                  timing.macs);

            if (kind != DataflowKind::OD) {
                // Outputs complete after the innermost N loop.
                if (tile + 1 == run_end) {
                    core_store_out += tile_out;
                    natural_out_writes += tile_out;
                    write(DataType::Output, t_end);
                    event(TraceEventKind::CoreStore, t_end,
                          DataType::Output, tiles.output);
                }
            } else {
                // OD partial sums store on every pass of Loop N.
                core_store_out += tile_out;
                write(DataType::Output, t_end);
                event(TraceEventKind::CoreStore, t_end,
                      DataType::Output, tiles.output);
                if (i0 + 1 == trip0)
                    natural_out_writes += tile_out;
            }
        }
        tile_index = end;
        if constexpr (kQuiet) {
            controller_.skipAhead(tile_start(run_base, end - 1) + t_tile,
                                  stale);
        }
    };
    const bool per_tile_events = trace_ != nullptr || guard_ != nullptr;
    std::uint64_t fast_forwarded = 0;

    for (std::uint64_t i0 = 0; i0 < trip0; ++i0) {
        const double scan_start =
            layer_start + static_cast<double>(i0) * t2 +
            static_cast<double>(i0 + 1) * stall;
        // The base of the scan's tile_start() times.
        const double run_base =
            layer_start + static_cast<double>(i0 + 1) * stall;
        // Staging at the outer loop boundary.
        switch (kind) {
          case DataflowKind::ID:
            // Loop M: the m-group's weights are staged here.
            weight_write = scan_start;
            controller_.onWrite(DataType::Weight, scan_start);
            break;
          case DataflowKind::OD:
            // Loop N: the input slab is staged here.
            input_write = scan_start;
            controller_.onWrite(DataType::Input, scan_start);
            break;
          case DataflowKind::WD:
            if (analysis.inputsPromoted) {
                // Inputs were staged whole at layer start.
                break;
            }
            // Loop RC: the input halo patch is staged here.
            input_write = scan_start;
            controller_.onWrite(DataType::Input, scan_start);
            natural_in_reads +=
                static_cast<double>(layer.n) * th * tl;
            break;
          default:
            panic("systolic dataflow in the legacy loop nest");
        }
        for (std::uint64_t i1 = 0; i1 < trip1; ++i1) {
            const double pass_start =
                scan_start + static_cast<double>(i1) * t1;
            if (kind == DataflowKind::OD) {
                // Loop M: the (n, m) weight tile is staged one
                // 1st-level pass ahead of its use.
                weight_write = std::max(layer_start, pass_start - t1);
                controller_.onWrite(DataType::Weight, pass_start);
                core_load_w += tile_w;
                observe_read(DataType::Weight, pass_start,
                             phi[kWeight] > 0.0 ? weight_write
                                                : pass_start);
                emit(TraceEventKind::CoreLoad, pass_start,
                     DataType::Weight, tiles.weight, tile_index);
            }
            // Fast-forward up to each refresh event and walk the tile
            // it falls in (every tile, when per-tile events are
            // wanted).
            const std::uint64_t run_end = tile_index + trip2;
            while (tile_index < run_end) {
                if (!per_tile_events) {
                    const std::uint64_t from = tile_index;
                    run_tiles(std::true_type{}, i0, run_base, run_end,
                              run_end);
                    fast_forwarded += tile_index - from;
                }
                run_tiles(std::false_type{}, i0, run_base,
                          per_tile_events
                              ? run_end
                              : std::min(tile_index + 1, run_end),
                          run_end);
            }
        }
    }

    const double layer_end =
        layer_start + static_cast<double>(trip0) * stall +
        static_cast<double>(tile_index) * t_tile;
    controller_.advanceTo(layer_end);
    now_ = layer_end;
    emit(TraceEventKind::LayerEnd, layer_end, DataType::Input, 0,
         tile_index);
    sim_metrics.layers.add();
    sim_metrics.tiles.add(tile_index);
    sim_metrics.tilesFastForwarded.add(fast_forwarded);

    // Assemble DRAM traffic from the event tallies: resident
    // fractions stream their complement on every reuse scan.
    const double natural_w_reads =
        static_cast<double>(layer.weightWords());
    const double streamed_out_writes = core_store_out;

    std::array<double, numDataTypes> dram_reads = {0.0, 0.0, 0.0};
    std::array<double, numDataTypes> dram_writes = {0.0, 0.0, 0.0};
    dram_reads[kInput] =
        natural_in_reads +
        (1.0 - phi[kInput]) * (core_load_in - natural_in_reads);
    dram_reads[kWeight] =
        natural_w_reads +
        (1.0 - phi[kWeight]) * (core_load_w - natural_w_reads);
    dram_reads[kOutput] = (1.0 - phi[kOutput]) * partial_reload_out;
    dram_writes[kOutput] =
        natural_out_writes +
        (1.0 - phi[kOutput]) * (streamed_out_writes -
                                natural_out_writes);

    LayerSimResult result;
    result.layerSeconds = layer_end - layer_start;
    result.utilization =
        static_cast<double>(layer.macs()) /
        (result.layerSeconds * config_.peakMacsPerSecond());
    result.refreshOps = controller_.refreshOps() - refresh_before;
    result.violations = controller_.violations() - violations_before;
    result.guardTrips =
        guard_ != nullptr ? guard_->stats().trips - guard_trips_before
                          : 0;
    result.observedLifetime = max_age;

    double buffer_words = core_load_in + core_load_w + core_store_out +
                          partial_reload_out;
    double dram_words = 0.0;
    for (std::size_t i = 0; i < numDataTypes; ++i)
        dram_words += dram_reads[i] + dram_writes[i];
    buffer_words += dram_words; // Fills and drains stage via buffer.

    result.counts.macOps = layer.macs();
    result.counts.bufferAccesses =
        static_cast<std::uint64_t>(std::llround(buffer_words));
    result.counts.ddrAccesses =
        static_cast<std::uint64_t>(std::llround(dram_words));
    result.counts.refreshOps = result.refreshOps;
    return result;
}

Result<LayerSimResult>
LoopNestSimulator::runLayerSystolic(const ConvLayerSpec &layer,
                                    const LayerAnalysis &analysis)
{
    const DataflowSpec &spec = analysis.spec();
    const Tiling &t = analysis.tiling;
    const TileSizes tiles = tileSizes(layer, t);
    const TripCounts trips = tripCounts(layer, t);
    const SystolicTiming timing =
        dataflowTileTiming(config_, layer, t, spec);
    const std::uint64_t trip0 = tripOf(trips, spec.order[0]);
    const std::uint64_t trip1 = tripOf(trips, spec.order[1]);
    const std::uint64_t trip2 = tripOf(trips, spec.order[2]);

    const double layer_start = now_;
    // Timing faults stretch tiles and stall outer scans exactly like
    // the legacy walk; the preload is a register-file transfer and
    // stays unstretched.
    const double t_tile = faults_.tileSeconds(timing.tile.seconds);
    const double stall = faults_.scanStallSeconds;
    const double preload_s = timing.preloadSeconds;
    const double t1 = static_cast<double>(trip2) * t_tile + preload_s;
    const double t2 = static_cast<double>(trip1) * t1;

    const LayerRefreshDemand demand = refreshDemand(config_, analysis);
    const auto flags = refreshFlagsForLayer(demand, interval_);
    const bool gate_on = flags[0] || flags[1] || flags[2];
    const std::uint64_t refresh_before = controller_.refreshOps();
    const std::uint64_t violations_before = controller_.violations();
    const std::uint64_t guard_trips_before =
        guard_ != nullptr ? guard_->stats().trips : 0;
    controller_.beginLayer(demand.allocation, flags, gate_on,
                           layer_start);
    if (trace_ != nullptr)
        trace_->onLayerBegin(layer.name);
    emit(TraceEventKind::LayerBegin, layer_start, DataType::Input, 0,
         0);
    const std::uint64_t banks_in_use =
        config_.buffer.numBanks - demand.allocation.unusedBanks;
    emit(TraceEventKind::BankOccupancy, layer_start, DataType::Input,
         banks_in_use, 0);
    SimMetrics &sim_metrics = SimMetrics::get();
    sim_metrics.banksInUse.set(static_cast<double>(banks_in_use));
    sim_metrics.banksInUsePeak.setMax(
        static_cast<double>(banks_in_use));

    const std::array<double, numDataTypes> phi = {
        analysis.types[kInput].residentFraction,
        analysis.types[kOutput].residentFraction,
        analysis.types[kWeight].residentFraction,
    };
    const int p_in = spec.reuseOf(DataType::Input);
    const int p_out = spec.reuseOf(DataType::Output);
    const int p_w = spec.reuseOf(DataType::Weight);
    const DataType array_tile = spec.arrayTile();

    double input_write = layer_start;
    double weight_write = layer_start;
    controller_.onWrite(DataType::Input, layer_start);
    controller_.onWrite(DataType::Weight, layer_start);
    controller_.onWrite(DataType::Output, layer_start);

    double core_load_in = 0.0;
    double core_load_w = 0.0;
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    // Whole-resident operands (reuse level 0) stage once up front.
    double natural_in_reads =
        p_in == 0 ? static_cast<double>(
                        analysis.types[kInput].naturalStorageWords)
                  : 0.0;
    double natural_w_reads =
        p_w == 0 ? static_cast<double>(
                       analysis.types[kWeight].naturalStorageWords)
                 : 0.0;
    double natural_out_writes = 0.0;
    std::array<double, numDataTypes> max_age = {0.0, 0.0, 0.0};

    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);

    auto observe_read = [&](DataType type, double now,
                            double write_time) {
        controller_.onRead(type, now, write_time);
        max_age[static_cast<std::size_t>(type)] =
            std::max(max_age[static_cast<std::size_t>(type)],
                     now - write_time);
    };

    std::uint64_t tile_index = 0;
    for (std::uint64_t i0 = 0; i0 < trip0; ++i0) {
        const double scan_start =
            layer_start + static_cast<double>(i0) * t2 +
            static_cast<double>(i0 + 1) * stall;
        // Slab operands (reuse level 1) stage at the outer boundary.
        if (p_in == 1) {
            input_write = scan_start;
            controller_.onWrite(DataType::Input, scan_start);
            natural_in_reads += static_cast<double>(
                analysis.types[kInput].naturalStorageWords);
        }
        if (p_w == 1) {
            weight_write = scan_start;
            controller_.onWrite(DataType::Weight, scan_start);
            natural_w_reads += static_cast<double>(
                analysis.types[kWeight].naturalStorageWords);
        }
        for (std::uint64_t i1 = 0; i1 < trip1; ++i1) {
            const double pass_start =
                scan_start + static_cast<double>(i1) * t1;
            // The array-stationary tile preloads at the pass start;
            // its DRAM fetch was double-buffered one pass ahead.
            if (array_tile == DataType::Input) {
                input_write = std::max(layer_start, pass_start - t1);
                controller_.onWrite(DataType::Input, pass_start);
                core_load_in += tile_in;
                natural_in_reads += tile_in;
                observe_read(DataType::Input, pass_start,
                             phi[kInput] > 0.0 ? input_write
                                               : pass_start);
                emit(TraceEventKind::CoreLoad, pass_start,
                     DataType::Input, tiles.input, tile_index);
            } else {
                weight_write = std::max(layer_start, pass_start - t1);
                controller_.onWrite(DataType::Weight, pass_start);
                core_load_w += tile_w;
                natural_w_reads += tile_w;
                observe_read(DataType::Weight, pass_start,
                             phi[kWeight] > 0.0 ? weight_write
                                                : pass_start);
                emit(TraceEventKind::CoreLoad, pass_start,
                     DataType::Weight, tiles.weight, tile_index);
            }
            for (std::uint64_t i2 = 0; i2 < trip2; ++i2) {
                const std::uint64_t tile_id = tile_index;
                const double t_start =
                    pass_start + preload_s +
                    static_cast<double>(i2) * t_tile;
                const double t_end = t_start + t_tile;
                ++tile_index;

                // Partial sums reload on every revisit: one visit
                // pitch ago (T1 across the 2nd-level loop, T2 plus
                // the scan stall across the outermost loop).
                if (p_out == 1 && i1 > 0) {
                    partial_reload_out += tile_out;
                    observe_read(DataType::Output, t_start,
                                 phi[kOutput] > 0.0 ? t_start - t1
                                                    : t_start);
                    emit(TraceEventKind::PartialReload, t_start,
                         DataType::Output, tiles.output, tile_id);
                } else if (p_out == 0 && i0 > 0) {
                    partial_reload_out += tile_out;
                    observe_read(DataType::Output, t_start,
                                 phi[kOutput] > 0.0
                                     ? t_start - t2 - stall
                                     : t_start);
                    emit(TraceEventKind::PartialReload, t_start,
                         DataType::Output, tiles.output, tile_id);
                }

                // Moving operands stream buffer -> array every tile.
                if (array_tile != DataType::Input) {
                    core_load_in += tile_in;
                    observe_read(DataType::Input, t_end,
                                 phi[kInput] > 0.0 ? input_write
                                                   : t_start);
                    emit(TraceEventKind::CoreLoad, t_start,
                         DataType::Input, tiles.input, tile_id);
                }
                if (array_tile != DataType::Weight) {
                    core_load_w += tile_w;
                    observe_read(DataType::Weight, t_end,
                                 phi[kWeight] > 0.0 ? weight_write
                                                    : t_start);
                    emit(TraceEventKind::CoreLoad, t_start,
                         DataType::Weight, tiles.weight, tile_id);
                }
                emit(TraceEventKind::TileCompute, t_end,
                     DataType::Input, timing.tile.macs, tile_id);

                if (p_out == 2) {
                    // Outputs complete inside the core after the
                    // innermost reduction.
                    if (i2 + 1 == trip2) {
                        core_store_out += tile_out;
                        natural_out_writes += tile_out;
                        controller_.onWrite(DataType::Output, t_end);
                        emit(TraceEventKind::CoreStore, t_end,
                             DataType::Output, tiles.output, tile_id);
                    }
                } else {
                    // Partial sums drain from the array every tile.
                    core_store_out += tile_out;
                    controller_.onWrite(DataType::Output, t_end);
                    emit(TraceEventKind::CoreStore, t_end,
                         DataType::Output, tiles.output, tile_id);
                    const bool last_visit = p_out == 1
                                                ? i1 + 1 == trip1
                                                : i0 + 1 == trip0;
                    if (last_visit)
                        natural_out_writes += tile_out;
                }
            }
        }
    }

    const double layer_end =
        layer_start + static_cast<double>(trip0) * stall +
        static_cast<double>(tile_index) * t_tile +
        static_cast<double>(trip0 * trip1) * preload_s;
    controller_.advanceTo(layer_end);
    now_ = layer_end;
    emit(TraceEventKind::LayerEnd, layer_end, DataType::Input, 0,
         tile_index);
    sim_metrics.layers.add();
    sim_metrics.tiles.add(tile_index);

    std::array<double, numDataTypes> dram_reads = {0.0, 0.0, 0.0};
    std::array<double, numDataTypes> dram_writes = {0.0, 0.0, 0.0};
    dram_reads[kInput] =
        natural_in_reads +
        (1.0 - phi[kInput]) * (core_load_in - natural_in_reads);
    dram_reads[kWeight] =
        natural_w_reads +
        (1.0 - phi[kWeight]) * (core_load_w - natural_w_reads);
    dram_reads[kOutput] = (1.0 - phi[kOutput]) * partial_reload_out;
    dram_writes[kOutput] =
        natural_out_writes +
        (1.0 - phi[kOutput]) * (core_store_out - natural_out_writes);

    LayerSimResult result;
    result.layerSeconds = layer_end - layer_start;
    result.utilization =
        static_cast<double>(layer.macs()) /
        (result.layerSeconds * config_.peakMacsPerSecond());
    result.refreshOps = controller_.refreshOps() - refresh_before;
    result.violations = controller_.violations() - violations_before;
    result.guardTrips =
        guard_ != nullptr ? guard_->stats().trips - guard_trips_before
                          : 0;
    result.observedLifetime = max_age;
    result.stallSeconds =
        static_cast<double>(tile_index) *
            (timing.skewCycles / config_.frequencyHz) +
        static_cast<double>(trip0 * trip1) * timing.preloadSeconds;

    double buffer_words = core_load_in + core_load_w + core_store_out +
                          partial_reload_out;
    double dram_words = 0.0;
    for (std::size_t i = 0; i < numDataTypes; ++i)
        dram_words += dram_reads[i] + dram_writes[i];
    buffer_words += dram_words; // Fills and drains stage via buffer.

    result.counts.macOps = layer.macs();
    result.counts.bufferAccesses =
        static_cast<std::uint64_t>(std::llround(buffer_words));
    result.counts.ddrAccesses =
        static_cast<std::uint64_t>(std::llround(dram_words));
    result.counts.refreshOps = result.refreshOps;
    return result;
}

} // namespace rana
