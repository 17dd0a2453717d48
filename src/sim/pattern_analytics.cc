/**
 * @file
 * Implementation of the closed-form layer analysis.
 */

#include "sim/pattern_analytics.hh"

#include <algorithm>
#include <cmath>

#include "sim/pe_array_model.hh"
#include "util/logging.hh"

namespace rana {

namespace {

constexpr std::size_t kInput = static_cast<std::size_t>(DataType::Input);
constexpr std::size_t kOutput =
    static_cast<std::size_t>(DataType::Output);
constexpr std::size_t kWeight =
    static_cast<std::size_t>(DataType::Weight);

/** Natural and fully-streamed traffic for one data type. */
struct TrafficBounds
{
    double naturalReads = 0.0;
    double streamedReads = 0.0;
    double naturalWrites = 0.0;
    double streamedWrites = 0.0;
};

} // namespace

const TypeAnalysis &
LayerAnalysis::of(DataType type) const
{
    return types[static_cast<std::size_t>(type)];
}

TypeAnalysis &
LayerAnalysis::of(DataType type)
{
    return types[static_cast<std::size_t>(type)];
}

double
LayerAnalysis::totalDramWords() const
{
    double total = 0.0;
    for (const auto &type : types)
        total += type.dramReadWords + type.dramWriteWords;
    return total;
}

double
LayerAnalysis::totalBufferWords() const
{
    double total = 0.0;
    for (const auto &type : types) {
        total += type.coreLoadWords + type.coreStoreWords +
                 type.dramReadWords + type.dramWriteWords;
    }
    return total;
}

bool
LayerAnalysis::spilled() const
{
    for (const auto &type : types) {
        if (type.residentFraction < 1.0)
            return true;
    }
    return false;
}

std::array<double, numDataTypes>
LayerAnalysis::lifetimes() const
{
    return {types[0].lifetimeSeconds, types[1].lifetimeSeconds,
            types[2].lifetimeSeconds};
}

namespace {

/**
 * The paper's closed forms for the legacy ID/OD/WD dataflows. This is
 * the historical implementation, kept verbatim so the legacy
 * schedules stay byte-identical to the pre-dataflow scheduler output.
 */
LayerAnalysis
analyzeLayerLegacy(const AcceleratorConfig &config,
                   const ConvLayerSpec &layer, const DataflowSpec &spec,
                   const Tiling &tiling, bool promote_inputs)
{
    const DataflowKind kind = spec.kind;
    const bool promote = promote_inputs && kind == DataflowKind::WD;
    LayerAnalysis analysis;
    analysis.dataflow = kind;
    analysis.inputsPromoted = promote;
    analysis.tiling = clampTiling(tiling, layer);
    const Tiling &t = analysis.tiling;

    const TileSizes tiles = tileSizes(layer, t);

    // Core local storage constraints (Figure 13).
    if (tiles.input > config.localInputWords) {
        analysis.infeasibleReason = "input tile exceeds Ri";
        return analysis;
    }
    if (tiles.output > config.localOutputWords) {
        analysis.infeasibleReason = "output tile exceeds Ro";
        return analysis;
    }
    if (tiles.weight > config.localWeightWords) {
        analysis.infeasibleReason = "weight tile exceeds Rw";
        return analysis;
    }

    // Timing: tile time and the nested loop level times.
    const TripCounts trips = tripCounts(layer, t);
    const TileTiming timing = tileTiming(config, layer, t);
    const auto &order = spec.order;
    const double t1 =
        static_cast<double>(tripOf(trips, order[2])) * timing.seconds;
    const double t2 = static_cast<double>(tripOf(trips, order[1])) * t1;
    const double t3 = static_cast<double>(tripOf(trips, order[0])) * t2;
    analysis.levelSeconds = {t1, t2, t3};
    analysis.layerSeconds = t3;
    analysis.utilization = static_cast<double>(layer.macs()) /
                           (t3 * config.peakMacsPerSecond());

    const auto nm = static_cast<double>(trips.nm);
    const auto nn = static_cast<double>(trips.nn);
    const auto nrc = static_cast<double>(trips.nrc());
    const auto total_tiles = static_cast<double>(trips.total());

    const auto in_words = static_cast<double>(layer.inputWords());
    const auto w_words = static_cast<double>(layer.weightWords());
    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);

    // Core traffic (independent of buffer residency). A tile is
    // re-fetched once per iteration of the innermost loop the data
    // type depends on.
    double core_load_in = total_tiles * tile_in;
    double core_load_w = 0.0;
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    switch (kind) {
      case DataflowKind::ID:
      case DataflowKind::WD:
        // Loop N is innermost: weights re-fetched per tile; outputs
        // complete their accumulation in the core and are stored
        // once per (m, rc).
        core_load_w = total_tiles * tile_w;
        core_store_out = nm * nrc * tile_out;
        break;
      case DataflowKind::OD:
        // Loop RC is innermost: a weight tile depends on (m, n) only
        // and is re-fetched once per (n, m) iteration. Outputs are
        // partial sums: stored per pass of Loop N and reloaded for
        // accumulation on every pass but the first.
        core_load_w = nn * nm * tile_w;
        core_store_out = total_tiles * tile_out;
        partial_reload_out = (nn - 1.0) * nm * nrc * tile_out;
        break;
      default:
        panic("systolic dataflow in the legacy closed forms");
    }

    // Natural buffer storage requirements (Equations 1-3, 6-8,
    // 11-13) and traffic bounds per type.
    std::array<std::uint64_t, numDataTypes> natural_bs = {0, 0, 0};
    std::array<std::uint64_t, numDataTypes> floor_bs = {
        tiles.input, tiles.output, tiles.weight};
    std::array<TrafficBounds, numDataTypes> bounds;

    const std::uint64_t th = layer.inputPatchH(t.tr);
    const std::uint64_t tl = layer.inputPatchW(t.tc);

    switch (kind) {
      case DataflowKind::ID:
        natural_bs[kInput] = layer.inputWords();
        natural_bs[kOutput] = tiles.output;
        natural_bs[kWeight] =
            static_cast<std::uint64_t>(t.tm) * layer.n * layer.k *
            layer.k;
        bounds[kInput].naturalReads = in_words;
        bounds[kWeight].naturalReads = w_words;
        break;
      case DataflowKind::OD:
        natural_bs[kInput] =
            static_cast<std::uint64_t>(t.tn) * layer.h * layer.l;
        natural_bs[kOutput] = layer.outputWords();
        natural_bs[kWeight] = tiles.weight;
        bounds[kInput].naturalReads = in_words;
        bounds[kWeight].naturalReads = w_words;
        break;
      case DataflowKind::WD:
        if (promote) {
            // Whole input set pinned: each input word loads once.
            natural_bs[kInput] = layer.inputWords();
            bounds[kInput].naturalReads = in_words;
        } else {
            natural_bs[kInput] =
                static_cast<std::uint64_t>(layer.n) * th * tl;
            // Input patches are re-read per RC tile with their halo.
            bounds[kInput].naturalReads =
                nrc * static_cast<double>(layer.n) * th * tl;
        }
        natural_bs[kOutput] = tiles.output;
        natural_bs[kWeight] = layer.weightWords();
        bounds[kWeight].naturalReads = w_words;
        break;
      default:
        panic("systolic dataflow in the legacy closed forms");
    }

    // Fully-streamed bounds: traffic equals the core re-fetch count.
    bounds[kInput].streamedReads = core_load_in;
    bounds[kWeight].streamedReads = core_load_w;

    // Outputs: final results always drain off-chip once; OD spills
    // additionally write and re-read partial sums per Loop N pass.
    bounds[kOutput].naturalWrites = nm * nrc * tile_out;
    if (kind == DataflowKind::OD) {
        bounds[kOutput].streamedWrites = total_tiles * tile_out;
        bounds[kOutput].streamedReads = partial_reload_out;
    } else {
        bounds[kOutput].streamedWrites = bounds[kOutput].naturalWrites;
        bounds[kOutput].streamedReads = 0.0;
    }

    // Residency solve. Residency is all-or-nothing per data type: a
    // type either keeps its whole natural set in the buffer or
    // streams it tile-by-tile from off-chip on every reuse scan
    // (double-buffered tile working space only). Types are degraded
    // from the largest natural requirement downward until the
    // bank-granular allocation fits.
    const std::uint64_t bank_words = config.buffer.bankWords();
    std::array<std::uint64_t, numDataTypes> alloc = natural_bs;
    auto banks_needed = [&alloc, bank_words]() {
        std::uint64_t banks = 0;
        for (std::uint64_t words : alloc)
            banks += (words + bank_words - 1) / bank_words;
        return banks;
    };
    if (banks_needed() > config.buffer.numBanks) {
        std::array<std::size_t, numDataTypes> by_size = {0, 1, 2};
        std::sort(by_size.begin(), by_size.end(),
                  [&natural_bs](std::size_t a, std::size_t b) {
                      return natural_bs[a] > natural_bs[b];
                  });
        for (std::size_t idx : by_size) {
            if (banks_needed() <= config.buffer.numBanks)
                break;
            alloc[idx] = std::min(floor_bs[idx], natural_bs[idx]);
        }
        if (banks_needed() > config.buffer.numBanks) {
            analysis.infeasibleReason =
                "streamed working set exceeds buffer capacity";
            return analysis;
        }
        if (promote && alloc[kInput] < natural_bs[kInput]) {
            // Promotion requires the whole input set to stay
            // resident; the caller falls back to the unpromoted
            // variant.
            analysis.infeasibleReason =
                "promoted inputs do not fit the buffer";
            return analysis;
        }
    }

    // Natural lifetimes: the execution time of the loop level at
    // which each data type is reused (Equations 4-5, 9-10).
    std::array<double, numDataTypes> natural_lt = {0.0, 0.0, 0.0};
    switch (kind) {
      case DataflowKind::ID:
        natural_lt = {t3, 0.0, t2};
        break;
      case DataflowKind::OD:
        natural_lt = {t2, t2, t1};
        break;
      case DataflowKind::WD:
        // Promoted inputs stay resident for the whole layer.
        natural_lt = {promote ? t3 : t2, 0.0, t3};
        break;
      default:
        panic("systolic dataflow in the legacy closed forms");
    }

    analysis.feasible = true;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        TypeAnalysis &type = analysis.types[i];
        type.naturalStorageWords = natural_bs[i];
        type.storageWords = alloc[i];
        const std::uint64_t floor_words =
            std::min(floor_bs[i], natural_bs[i]);
        if (natural_bs[i] > floor_words) {
            const double span =
                static_cast<double>(natural_bs[i] - floor_words);
            type.residentFraction =
                static_cast<double>(alloc[i] - floor_words) / span;
        } else {
            type.residentFraction = 1.0;
        }
        const double phi = type.residentFraction;
        const TrafficBounds &b = bounds[i];
        type.dramReadWords =
            b.naturalReads + (1.0 - phi) * (b.streamedReads -
                                            b.naturalReads);
        type.dramWriteWords =
            b.naturalWrites + (1.0 - phi) * (b.streamedWrites -
                                             b.naturalWrites);
        type.lifetimeSeconds =
            phi > 0.0 ? natural_lt[i] : timing.seconds;
    }
    analysis.of(DataType::Input).coreLoadWords = core_load_in;
    analysis.of(DataType::Weight).coreLoadWords = core_load_w;
    analysis.of(DataType::Output).coreLoadWords = partial_reload_out;
    analysis.of(DataType::Output).coreStoreWords = core_store_out;

    return analysis;
}

/**
 * Generic loop-order model for the systolic dataflows. Storage,
 * lifetime and traffic all derive from each data type's reuse level
 * p (the position of the loop axis it does not depend on):
 *
 *  - natural storage: tile extent for dependence axes ordered inside
 *    position p, full extent for those outside (Whole at p=0, a slab
 *    at p=1, one tile at p=2);
 *  - lifetime: inputs and weights are written once per staging and
 *    age across the whole reuse scan (T3/T2/T1 for p=0/1/2);
 *    outputs rewrite themselves every visit, so partial sums age
 *    only one visit pitch (T2/T1 for p=0/1, 0 when they complete
 *    inside the core at p=2);
 *  - off-chip reads: one staging of the natural set per iteration of
 *    the loops outside position p;
 *  - core traffic: a tile is re-fetched per inner tile when the type
 *    depends on the innermost axis, once per 1st-level pass
 *    otherwise (the array-stationary operand).
 *
 * The same rules reproduce the legacy ID/OD/WD closed forms exactly;
 * they stay on analyzeLayerLegacy() only to keep the historical
 * float evaluation order bit-stable.
 */
LayerAnalysis
analyzeLayerSystolic(const AcceleratorConfig &config,
                     const ConvLayerSpec &layer,
                     const DataflowSpec &spec, const Tiling &tiling)
{
    LayerAnalysis analysis;
    analysis.dataflow = spec.kind;
    analysis.tiling = clampTiling(tiling, layer);
    const Tiling &t = analysis.tiling;

    const TileSizes tiles = tileSizes(layer, t);

    // Core local storage constraints (Figure 13), shared with the
    // legacy patterns: the systolic schedule runs the same tile.
    if (tiles.input > config.localInputWords) {
        analysis.infeasibleReason = "input tile exceeds Ri";
        return analysis;
    }
    if (tiles.output > config.localOutputWords) {
        analysis.infeasibleReason = "output tile exceeds Ro";
        return analysis;
    }
    if (tiles.weight > config.localWeightWords) {
        analysis.infeasibleReason = "weight tile exceeds Rw";
        return analysis;
    }

    // Timing: the skewed tile plus the per-pass stationary preload.
    const TripCounts trips = tripCounts(layer, t);
    const SystolicTiming timing =
        dataflowTileTiming(config, layer, t, spec);
    const std::uint64_t trip0 = tripOf(trips, spec.order[0]);
    const std::uint64_t trip1 = tripOf(trips, spec.order[1]);
    const std::uint64_t trip2 = tripOf(trips, spec.order[2]);
    const double t1 =
        static_cast<double>(trip2) * timing.tile.seconds +
        timing.preloadSeconds;
    const double t2 = static_cast<double>(trip1) * t1;
    const double t3 = static_cast<double>(trip0) * t2;
    analysis.levelSeconds = {t1, t2, t3};
    analysis.layerSeconds = t3;
    analysis.utilization = static_cast<double>(layer.macs()) /
                           (t3 * config.peakMacsPerSecond());

    const auto total_tiles = static_cast<double>(trips.total());
    const auto passes = static_cast<double>(trip0 * trip1);

    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);

    const std::uint64_t th = layer.inputPatchH(t.tr);
    const std::uint64_t tl = layer.inputPatchW(t.tc);

    // Reuse levels and per-axis loop positions.
    const int p_in = spec.reuseOf(DataType::Input);
    const int p_out = spec.reuseOf(DataType::Output);
    const int p_w = spec.reuseOf(DataType::Weight);
    const auto pos = [&spec](LoopAxis axis) {
        for (int i = 0; i < 3; ++i) {
            if (spec.order[static_cast<std::size_t>(i)] == axis)
                return i;
        }
        return 0;
    };
    const int pos_m = pos(LoopAxis::M);
    const int pos_n = pos(LoopAxis::N);
    const int pos_rc = pos(LoopAxis::RC);

    // Natural storage: tile extent for dependence axes inside the
    // reuse position, full extent outside it.
    std::array<std::uint64_t, numDataTypes> natural_bs = {0, 0, 0};
    natural_bs[kInput] =
        (pos_n < p_in ? t.tn : layer.n) *
        (pos_rc < p_in ? th * tl
                       : static_cast<std::uint64_t>(layer.h) *
                             layer.l);
    natural_bs[kWeight] =
        static_cast<std::uint64_t>(pos_m < p_w ? t.tm : layer.m) *
        (pos_n < p_w ? t.tn : layer.n) *
        static_cast<std::uint64_t>(layer.k) * layer.k;
    natural_bs[kOutput] =
        (pos_m < p_out ? t.tm : layer.m) *
        (pos_rc < p_out
             ? static_cast<std::uint64_t>(t.tr) * t.tc
             : static_cast<std::uint64_t>(layer.r()) * layer.c());
    std::array<std::uint64_t, numDataTypes> floor_bs = {
        tiles.input, tiles.output, tiles.weight};

    // Staging count per type: one natural-set fetch per iteration of
    // the loops outside the reuse position.
    const auto trip_at = [&](int level) {
        return level == 0 ? trip0 : (level == 1 ? trip1 : trip2);
    };
    const auto stagings = [&](int p) {
        double count = 1.0;
        for (int q = 0; q < p; ++q)
            count *= static_cast<double>(trip_at(q));
        return count;
    };

    // Core traffic: per tile when the type depends on the innermost
    // axis, once per 1st-level pass for the array-stationary tile.
    const bool in_inner = spec.order[2] != LoopAxis::M;
    const bool w_inner = spec.order[2] != LoopAxis::RC;
    const double core_load_in =
        (in_inner ? total_tiles : passes) * tile_in;
    const double core_load_w =
        (w_inner ? total_tiles : passes) * tile_w;

    // Outputs: at p=2 they complete inside the core and store once
    // per tile position; at p<2 partial sums store on every visit
    // and reload on every revisit.
    const auto out_visits = static_cast<double>(trip_at(p_out));
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    double natural_out_writes = 0.0;
    if (p_out == 2) {
        core_store_out = passes * tile_out;
        natural_out_writes = core_store_out;
    } else {
        core_store_out = total_tiles * tile_out;
        natural_out_writes = (total_tiles / out_visits) * tile_out;
        partial_reload_out =
            (out_visits - 1.0) * (total_tiles / out_visits) *
            tile_out;
    }

    std::array<TrafficBounds, numDataTypes> bounds;
    bounds[kInput].naturalReads =
        stagings(p_in) * static_cast<double>(natural_bs[kInput]);
    bounds[kWeight].naturalReads =
        stagings(p_w) * static_cast<double>(natural_bs[kWeight]);
    bounds[kInput].streamedReads = core_load_in;
    bounds[kWeight].streamedReads = core_load_w;
    bounds[kOutput].naturalWrites = natural_out_writes;
    bounds[kOutput].streamedWrites = core_store_out;
    bounds[kOutput].streamedReads = partial_reload_out;

    // Residency solve, identical policy to the legacy patterns:
    // all-or-nothing per type, largest natural set degraded first
    // until the bank-granular allocation fits.
    const std::uint64_t bank_words = config.buffer.bankWords();
    std::array<std::uint64_t, numDataTypes> alloc = natural_bs;
    auto banks_needed = [&alloc, bank_words]() {
        std::uint64_t banks = 0;
        for (std::uint64_t words : alloc)
            banks += (words + bank_words - 1) / bank_words;
        return banks;
    };
    if (banks_needed() > config.buffer.numBanks) {
        std::array<std::size_t, numDataTypes> by_size = {0, 1, 2};
        std::sort(by_size.begin(), by_size.end(),
                  [&natural_bs](std::size_t a, std::size_t b) {
                      return natural_bs[a] > natural_bs[b];
                  });
        for (std::size_t idx : by_size) {
            if (banks_needed() <= config.buffer.numBanks)
                break;
            alloc[idx] = std::min(floor_bs[idx], natural_bs[idx]);
        }
        if (banks_needed() > config.buffer.numBanks) {
            analysis.infeasibleReason =
                "streamed working set exceeds buffer capacity";
            return analysis;
        }
    }

    // Natural lifetimes from the reuse levels: read-only operands
    // age across the full reuse scan, self-rewriting partial sums
    // age one visit pitch.
    std::array<double, numDataTypes> natural_lt = {0.0, 0.0, 0.0};
    natural_lt[kInput] = analysis.levelSeconds[2 - p_in];
    natural_lt[kWeight] = analysis.levelSeconds[2 - p_w];
    natural_lt[kOutput] =
        p_out == 2 ? 0.0 : analysis.levelSeconds[1 - p_out];

    analysis.feasible = true;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        TypeAnalysis &type = analysis.types[i];
        type.naturalStorageWords = natural_bs[i];
        type.storageWords = alloc[i];
        const std::uint64_t floor_words =
            std::min(floor_bs[i], natural_bs[i]);
        if (natural_bs[i] > floor_words) {
            const double span =
                static_cast<double>(natural_bs[i] - floor_words);
            type.residentFraction =
                static_cast<double>(alloc[i] - floor_words) / span;
        } else {
            type.residentFraction = 1.0;
        }
        const double phi = type.residentFraction;
        const TrafficBounds &b = bounds[i];
        type.dramReadWords =
            b.naturalReads + (1.0 - phi) * (b.streamedReads -
                                            b.naturalReads);
        type.dramWriteWords =
            b.naturalWrites + (1.0 - phi) * (b.streamedWrites -
                                             b.naturalWrites);
        type.lifetimeSeconds =
            phi > 0.0 ? natural_lt[i] : timing.tile.seconds;
    }
    analysis.of(DataType::Input).coreLoadWords = core_load_in;
    analysis.of(DataType::Weight).coreLoadWords = core_load_w;
    analysis.of(DataType::Output).coreLoadWords = partial_reload_out;
    analysis.of(DataType::Output).coreStoreWords = core_store_out;

    // Systolic stall/utilization/bandwidth statistics.
    analysis.systolic.skewCyclesPerTile = timing.skewCycles;
    analysis.systolic.preloadCyclesPerPass = timing.preloadCycles;
    analysis.systolic.stallSeconds =
        total_tiles * (timing.skewCycles / config.frequencyHz) +
        passes * timing.preloadSeconds;
    const double dense_seconds = t3 - analysis.systolic.stallSeconds;
    analysis.systolic.denseUtilization =
        dense_seconds > 0.0
            ? static_cast<double>(layer.macs()) /
                  (dense_seconds * config.peakMacsPerSecond())
            : 0.0;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        analysis.systolic.dramBandwidth[i] =
            (analysis.types[i].dramReadWords +
             analysis.types[i].dramWriteWords) /
            t3;
    }
    return analysis;
}

} // namespace

LayerAnalysis
analyzeLayer(const AcceleratorConfig &config, const ConvLayerSpec &layer,
             const DataflowSpec &spec, const Tiling &tiling,
             bool promote_inputs)
{
    if (spec.legacy()) {
        return analyzeLayerLegacy(config, layer, spec, tiling,
                                  promote_inputs);
    }
    return analyzeLayerSystolic(config, layer, spec, tiling);
}

BankAllocation
analysisBankAllocation(const AcceleratorConfig &config,
                       const LayerAnalysis &analysis)
{
    RANA_ASSERT(analysis.feasible,
                "bank allocation of an infeasible analysis");
    return allocateBanks(config.buffer,
                         analysis.of(DataType::Input).storageWords,
                         analysis.of(DataType::Output).storageWords,
                         analysis.of(DataType::Weight).storageWords);
}

LayerRefreshDemand
refreshDemand(const AcceleratorConfig &config,
              const LayerAnalysis &analysis)
{
    LayerRefreshDemand demand;
    demand.layerSeconds = analysis.layerSeconds;
    demand.lifetimeSeconds = analysis.lifetimes();
    demand.allocation = analysisBankAllocation(config, analysis);
    return demand;
}

OperationCounts
layerOperationCounts(const AcceleratorConfig &config,
                     const ConvLayerSpec &layer,
                     const LayerAnalysis &analysis,
                     RefreshPolicy policy,
                     double refresh_interval_seconds)
{
    RANA_ASSERT(analysis.feasible,
                "operation counts of an infeasible analysis");
    OperationCounts counts;
    counts.macOps = layer.macs();

    double buffer_words = 0.0;
    double dram_words = 0.0;
    for (const auto &type : analysis.types) {
        buffer_words += type.coreLoadWords + type.coreStoreWords +
                        type.dramReadWords + type.dramWriteWords;
        dram_words += type.dramReadWords + type.dramWriteWords;
    }
    counts.bufferAccesses =
        static_cast<std::uint64_t>(std::llround(buffer_words));
    counts.ddrAccesses =
        static_cast<std::uint64_t>(std::llround(dram_words));

    if (policy != RefreshPolicy::None) {
        counts.refreshOps = refreshOpsForLayer(
            policy, config.buffer, refreshDemand(config, analysis),
            refresh_interval_seconds);
    }
    return counts;
}

} // namespace rana
