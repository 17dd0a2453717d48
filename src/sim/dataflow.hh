/**
 * @file
 * First-class dataflow specifications: the scheduler's loop-order
 * axis.
 *
 * A DataflowSpec fixes the ordering of the three memory-control
 * loops and, derived from it, each data type's residency class,
 * reuse level and buffer lifetime. The paper's ID/OD/WD computation
 * patterns are three of the six loop-order permutations; the other
 * three are the systolic weight-/input-/output-stationary dataflows
 * (the CADOSys family), which run the same core tile on a skewed
 * systolic schedule with a double-buffered scratchpad:
 *
 *   | Dataflow | Loop order (outer..inner) | Stationary | Style    |
 *   |----------|---------------------------|------------|----------|
 *   | ID       | M, RC, N                  | inputs     | legacy   |
 *   | OD       | N, M, RC                  | outputs    | legacy   |
 *   | WD       | RC, M, N                  | weights    | legacy   |
 *   | sys-ws   | M, N, RC                  | weights    | systolic |
 *   | sys-is   | RC, N, M                  | inputs     | systolic |
 *   | sys-os   | N, RC, M                  | outputs    | systolic |
 *
 * Residency semantics: each data type has exactly one loop axis it
 * does not depend on (inputs: Loop M, weights: Loop RC, outputs:
 * Loop N). The position p of that axis in the loop order is the
 * type's *reuse level*; it determines the natural buffer working
 * set (Whole for p=0, a Slab for p=1, one Tile for p=2) and the
 * buffer lifetime (the time of one pass of the loop level the data
 * is reused across). Reordering loops therefore moves refresh
 * exposure between data types without touching the core computing
 * part: e.g. sys-is pins only one input tile (lifetime T1) where WD
 * pins an N-deep input slab for a whole 2nd-level pass (T2).
 *
 * Systolic dataflows additionally model the array skew (fill/drain
 * of the peRows x peCols wavefront per tile) and the preload of the
 * array-stationary tile per 1st-level pass, with double-buffered
 * staging hiding the DRAM fetch of the next stationary tile behind
 * the current pass.
 */

#ifndef RANA_SIM_DATAFLOW_HH_
#define RANA_SIM_DATAFLOW_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "edram/buffer_system.hh"
#include "sim/pattern.hh"
#include "util/result.hh"

namespace rana {

/** The six dataflows: three legacy patterns, three systolic. */
enum class DataflowKind : std::uint8_t {
    ID,
    OD,
    WD,
    SystolicWS,
    SystolicIS,
    SystolicOS,
};

/** Number of dataflow kinds. */
constexpr std::size_t numDataflowKinds = 6;

/** Natural buffer residency class of one data type. */
enum class Residency : std::uint8_t {
    /** The type's whole layer set stays buffer-resident. */
    Whole,
    /** A slab (one outer iteration's working set) stays resident. */
    Slab,
    /** Only the current tile is staged (double-buffered). */
    Tile,
};

/**
 * A fully specified dataflow: loop order plus the per-type residency
 * and reuse structure the order implies.
 */
struct DataflowSpec
{
    DataflowKind kind = DataflowKind::ID;
    /** Canonical name: "ID", "OD", "WD", "sys-ws/is/os". */
    const char *name = "ID";
    /** Loop order from outermost (index 0) to innermost (index 2). */
    std::array<LoopAxis, 3> order = {LoopAxis::M, LoopAxis::RC,
                                     LoopAxis::N};
    /** Whether the core runs a skewed systolic schedule. */
    bool systolic = false;
    /**
     * Whether per-pass staged tiles are double-buffered (prefetched
     * one 1st-level pass ahead so DRAM latency hides behind
     * compute). Always true: OD's weight staging already follows
     * this convention, and the systolic scratchpad requires it.
     */
    bool doubleBuffered = true;
    /** The operand held stationary on chip across its reuse scan. */
    DataType stationary = DataType::Input;
    /**
     * Reuse level p per data type: the position (0 = outermost) of
     * the one loop axis the type does not depend on. Lifetime and
     * natural storage derive from it (see file comment).
     */
    std::array<int, numDataTypes> reuseLevel = {0, 2, 1};
    /** Natural residency class per data type, derived from p. */
    std::array<Residency, numDataTypes> residency = {
        Residency::Whole, Residency::Tile, Residency::Slab};

    /** Whether this is one of the paper's ID/OD/WD patterns. */
    bool legacy() const { return !systolic; }
    /** Reuse level of one data type. */
    int reuseOf(DataType type) const
    {
        return reuseLevel[static_cast<std::size_t>(type)];
    }
    /** Residency class of one data type. */
    Residency residencyOf(DataType type) const
    {
        return residency[static_cast<std::size_t>(type)];
    }
    /**
     * The input-or-weight operand whose tile is pinned in the PE
     * array across the innermost scan (reuse level 2). For systolic
     * dataflows this is the tile the array preloads per 1st-level
     * pass; OD's double-buffered weight staging is the legacy
     * equivalent.
     */
    DataType arrayTile() const;
    /**
     * Whether outputs accumulate across the outermost loop (reuse
     * level 0): partial sums live a whole 2nd-level pass and the
     * final results finish spread over the last outer pass (OD and
     * sys-os).
     */
    bool outputsAccumulateAcrossOuter() const
    {
        return reuseOf(DataType::Output) == 0;
    }
};

/** The immutable spec of a dataflow kind. */
const DataflowSpec &dataflowSpec(DataflowKind kind);

/** Canonical name ("ID", "OD", "WD", "sys-ws", "sys-is", "sys-os"). */
const char *dataflowName(DataflowKind kind);

/**
 * Parse a canonical dataflow name. Legacy pattern names are accepted
 * both uppercase ("OD", the config-file spelling) and lowercase
 * ("od", the CLI spelling).
 */
Result<DataflowKind> parseDataflowName(const std::string &token);

/** All six dataflow kinds, legacy first. */
const std::array<DataflowKind, numDataflowKinds> &allDataflows();

/** The three legacy kinds (ID, OD, WD). */
std::vector<DataflowKind> legacyDataflows();

/**
 * RANA's hybrid search axis (OD, WD): the default of
 * SchedulerOptions::dataflows. Defined out of line because GCC 12
 * reports a false -Wmaybe-uninitialized for an inline
 * initializer-list default of this one-byte enum.
 */
std::vector<DataflowKind> hybridDataflows();

} // namespace rana

#endif // RANA_SIM_DATAFLOW_HH_
