/**
 * @file
 * Golden trained-weight digests: the trainer's exact numeric
 * trajectory, pinned per mini model.
 *
 * Every pinned value is a 64-bit FNV-1a digest over the raw bytes of
 * exportWeights() (params() order), taken after pretrain() and again
 * after retrain(1e-4), plus the exact baseline accuracy. Any change
 * to a training kernel that alters a single ULP of any activation,
 * gradient or update changes the digests, so kernel rewrites (loop
 * reorders, lane-major layouts, vectorization) must keep these
 * values unchanged. Two configurations are covered: the serving
 * stand-in scale (batch 32) and the same scale with an odd batch of
 * 7, which exercises minibatches that are not a multiple of any
 * vector width.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "serving/serving.hh"
#include "train/trainer.hh"

namespace rana {
namespace {

std::uint64_t
weightDigest(const std::vector<Tensor> &weights)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const Tensor &tensor : weights) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(tensor.data());
        for (std::size_t i = 0; i < tensor.size() * sizeof(float); ++i) {
            hash ^= bytes[i];
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

struct Golden
{
    MiniModelKind kind;
    std::uint64_t pretrained;
    std::uint64_t retrained;
    double baseline;
};

void
checkGolden(const TrainerConfig &trainer_config, const Golden &golden)
{
    const ServingConfig serving;
    RetentionAwareTrainer trainer(golden.kind, serving.dataset,
                                  trainer_config);
    trainer.pretrain();
    const std::uint64_t pretrained = weightDigest(trainer.exportWeights());
    trainer.retrain(1e-4);
    const std::uint64_t retrained = weightDigest(trainer.exportWeights());
    SCOPED_TRACE(miniModelName(golden.kind));
    EXPECT_EQ(pretrained, golden.pretrained) << std::hex << pretrained;
    EXPECT_EQ(retrained, golden.retrained) << std::hex << retrained;
    // Accuracies are k / 128 (the stand-in test set), so the
    // comparison is exact.
    EXPECT_EQ(trainer.baselineAccuracy(), golden.baseline);
}

TEST(TrainGolden, StandInScale)
{
    const TrainerConfig config = ServingConfig().trainer;
    const Golden goldens[] = {
        {MiniModelKind::MiniAlex, 0xcbe1269487dcfabaull,
         0x2facdeb243dbbca4ull, 128 / 128.0},
        {MiniModelKind::MiniVgg, 0xdcc6c1b1e6504b7aull,
         0xb10bc3b394315303ull, 123 / 128.0},
        {MiniModelKind::MiniInception, 0xe06f03e6cd8c4ba5ull,
         0xeb5d987769342b86ull, 121 / 128.0},
        {MiniModelKind::MiniRes, 0x3ef4247cee571ed1ull,
         0xb8ce9b5a10922b6bull, 125 / 128.0},
    };
    for (const Golden &golden : goldens)
        checkGolden(config, golden);
}

TEST(TrainGolden, OddBatch)
{
    TrainerConfig config = ServingConfig().trainer;
    config.batchSize = 7;
    const Golden goldens[] = {
        {MiniModelKind::MiniAlex, 0x1197257cd678219cull,
         0x1fc55198e0ef3598ull, 124 / 128.0},
        {MiniModelKind::MiniVgg, 0xeb3996d4fd8f7468ull,
         0x6b8c276e4eb9fcdcull, 78 / 128.0},
        {MiniModelKind::MiniInception, 0xc82fce5ee8269279ull,
         0x990c705e6aa48a0bull, 117 / 128.0},
        {MiniModelKind::MiniRes, 0x31c234c49b453e1eull,
         0xff040c701a45a8a0ull, 32 / 128.0},
    };
    for (const Golden &golden : goldens)
        checkGolden(config, golden);
}

} // namespace
} // namespace rana
