#include "generator.hh"

#include <array>
#include <cstdio>
#include <numeric>

namespace perfbench {

const char *const kNetworks[4] = {"AlexNet", "VGG", "GoogLeNet",
                                  "ResNet"};

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix::below(std::uint64_t bound)
{
    return next() % bound;
}

namespace {

/** Purpose tags keep the per-workload streams independent. */
enum class Purpose : std::uint64_t {
    CompileOrder = 1,
    CompileFields,
    CampaignOrder,
    CampaignFields,
    CampaignPool,
    ServeOrder,
    ServeConfig,
};

SplitMix
streamFor(std::uint64_t seed, SeedStream stream, Purpose purpose,
          std::uint64_t index)
{
    SplitMix mix(seed);
    std::uint64_t key = mix.next();
    key ^= (static_cast<std::uint64_t>(stream) + 1) *
           0xd1b54a32d192ed03ULL;
    key ^= static_cast<std::uint64_t>(purpose) * 0x8cb92ba72f3d8dd7ULL;
    SplitMix keyed(key);
    keyed.next();
    return SplitMix(keyed.next() ^ (index * 0x9e3779b97f4a7c15ULL));
}

/** Position `slot` of block `block`'s seeded permutation of n classes. */
unsigned
blockClass(std::uint64_t seed, SeedStream stream, Purpose purpose,
           std::uint64_t block, unsigned n, unsigned slot)
{
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0u);
    SplitMix rng = streamFor(seed, stream, purpose, block);
    for (unsigned i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    return order[slot];
}

template <typename T, std::size_t N>
T
pick(SplitMix &rng, const std::array<T, N> &values)
{
    return values[rng.below(N)];
}

} // namespace

CompileOp
compileClass(unsigned cls)
{
    static constexpr std::array<std::uint32_t, 7> kBanks = {
        0, 11, 23, 46, 92, 184, 368};
    CompileOp op;
    op.cls = cls % kCompileBlock;
    op.network = op.cls % 4;
    op.design = (op.cls / 4) % 10;
    op.autoDataflow = op.cls >= 40;
    // The bank override and the guard are fixed functions of the
    // class: a large buffer on ResNet costs ~50x a small one on
    // AlexNet, and a guarded (stalled) DaDianNao op ~20x an unguarded
    // one, so drawing them would let the seed, not the code, set a
    // block's cost. The overrides spread the seven Fig.-18 options
    // over the Table-IV classes (the DaDianNao node keeps its own
    // buffer); one network per (design, axis) pair is guarded.
    const unsigned axis = op.autoDataflow ? 1 : 0;
    if (op.design < 6)
        op.banks = kBanks[(op.network + 2 * op.design + 3 * axis) %
                          kBanks.size()];
    op.guarded = (op.network + op.design + axis) % 4 == 0;
    return op;
}

CompileOp
compileOp(std::uint64_t seed, SeedStream stream, std::uint64_t index)
{
    const std::uint64_t block = index / kCompileBlock;
    const unsigned slot = static_cast<unsigned>(index % kCompileBlock);
    CompileOp op = compileClass(blockClass(
        seed, stream, Purpose::CompileOrder, block, kCompileBlock, slot));
    op.id = index;
    SplitMix rng = streamFor(seed, stream, Purpose::CompileFields, index);
    op.guardPolicy = static_cast<unsigned>(rng.below(3));
    return op;
}

CampaignOp
campaignOp(std::uint64_t seed, SeedStream stream, std::uint64_t index)
{
    static constexpr std::array<double, 3> kRates = {1e-5, 1e-4, 1e-3};
    static constexpr std::array<double, 3> kIntervals = {45e-6, 734e-6,
                                                         1.44e-3};
    const std::uint64_t block = index / kCampaignBlock;
    const unsigned slot = static_cast<unsigned>(index % kCampaignBlock);
    CampaignOp op;
    op.id = index;
    op.model = blockClass(seed, stream, Purpose::CampaignOrder, block,
                          kCampaignBlock, slot);
    SplitMix rng = streamFor(seed, stream, Purpose::CampaignFields, index);
    op.failureRate = pick(rng, kRates);
    op.refreshIntervalSeconds = pick(rng, kIntervals);
    op.trialSeed = rng.next() >> 16;
    op.trials = 16 + static_cast<std::uint32_t>(rng.below(17));
    const std::uint64_t member = rng.below(2);
    SplitMix pool = streamFor(seed, stream, Purpose::CampaignPool,
                              op.model * 2 + member);
    op.trainerSeed = pool.next() >> 16;
    op.datasetSeed = pool.next() >> 16;
    return op;
}

ServeOp
serveOp(std::uint64_t seed, SeedStream stream, std::uint64_t index)
{
    ServeOp op;
    op.id = index;
    op.config = blockClass(seed, stream, Purpose::ServeOrder,
                           index / kServeConfigs, kServeConfigs,
                           static_cast<unsigned>(index % kServeConfigs));
    return op;
}

ServeConfigDraw
serveConfig(std::uint64_t seed, SeedStream stream, unsigned config)
{
    // Eight tenants, two per network (one open-loop, one closed-loop),
    // over the three guard policies and per-batch fault rates. The
    // layout is fixed: a permanent-policy tenant sheds everything
    // after its first trip, and a closed-loop one then retries every
    // few milliseconds, so whether and when it trips would swing a
    // replay's cost by a third. The one permanent tenant is open-loop
    // with the highest rate, so it trips early in every replay. The
    // seed draws each configuration's engine seed (arrivals, fault
    // samples, request samples).
    struct Row
    {
        bool closedLoop;
        unsigned guardPolicy;
        double faultRate;
    };
    static constexpr Row kRows[8] = {
        {false, 0, 8e-3}, {false, 1, 2e-3}, {false, 2, 4e-3},
        {false, 1, 1e-3}, {true, 1, 4e-3},  {true, 2, 1e-3},
        {true, 1, 8e-3},  {true, 2, 2e-3},
    };
    ServeConfigDraw draw;
    for (unsigned t = 0; t < 8; ++t) {
        TenantDraw tenant;
        tenant.network = t % 4;
        tenant.closedLoop = kRows[t].closedLoop;
        tenant.guardPolicy = kRows[t].guardPolicy;
        tenant.faultRate = kRows[t].faultRate;
        tenant.clients = 3;
        tenant.thinkSeconds = 0.02;
        draw.tenants.push_back(tenant);
    }
    draw.durationSeconds = 30.0;
    draw.seed = streamFor(seed, stream, Purpose::ServeConfig, config).next() >>
                16;
    return draw;
}

std::string
describe(const CompileOp &op)
{
    char line[160];
    std::snprintf(line, sizeof line,
                  "compile %llu class=%u net=%s design=%u banks=%u "
                  "auto=%d guard=%d policy=%u",
                  static_cast<unsigned long long>(op.id), op.cls,
                  kNetworks[op.network], op.design, op.banks,
                  op.autoDataflow ? 1 : 0, op.guarded ? 1 : 0,
                  op.guardPolicy);
    return line;
}

std::string
describe(const CampaignOp &op)
{
    char line[200];
    std::snprintf(line, sizeof line,
                  "campaign %llu model=%u rate=%g interval=%g "
                  "trials=%u seed=%llu trainer=%llu dataset=%llu",
                  static_cast<unsigned long long>(op.id), op.model,
                  op.failureRate, op.refreshIntervalSeconds, op.trials,
                  static_cast<unsigned long long>(op.trialSeed),
                  static_cast<unsigned long long>(op.trainerSeed),
                  static_cast<unsigned long long>(op.datasetSeed));
    return line;
}

std::string
describe(const ServeOp &op)
{
    char line[64];
    std::snprintf(line, sizeof line, "serve %llu config=%u",
                  static_cast<unsigned long long>(op.id), op.config);
    return line;
}

} // namespace perfbench
