/**
 * @file
 * Bitwise differential tests of the sample-lane training kernels.
 *
 * The scalar loop nests below are the reference the lane-major
 * kernels replaced; they live only here. Over seeded random layer
 * shapes, every training-mode forward output, input gradient and
 * parameter gradient of the layers must match the reference
 * byte for byte (memcmp, not a tolerance), including gradients that
 * accumulate over two backward calls without zeroGrad in between.
 * The trial-lane tests hold a padded trial block to one-lane passes
 * and the parameter-only backward to the full one.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <set>

#include "train/layers.hh"
#include "train/mini_models.hh"
#include "train/trial_batch.hh"
#include "util/random.hh"

namespace rana {
namespace {

void
randomize(Tensor &tensor, Rng &rng)
{
    for (std::size_t i = 0; i < tensor.size(); ++i)
        tensor[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

/** Reference conv forward: bias + taps in (n, ky, kx) order. */
Tensor
refConvForward(const Tensor &in, const Tensor &wt, const Tensor &bias,
               std::uint32_t stride, std::uint32_t pad)
{
    const std::uint32_t batch = in.dim(0);
    const std::uint32_t in_channels = in.dim(1);
    const std::uint32_t h = in.dim(2);
    const std::uint32_t w = in.dim(3);
    const std::uint32_t out_channels = wt.dim(0);
    const std::uint32_t kernel = wt.dim(2);
    const std::uint32_t r = (h + 2 * pad - kernel) / stride + 1;
    const std::uint32_t c = (w + 2 * pad - kernel) / stride + 1;
    Tensor out({batch, out_channels, r, c});
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float acc = bias[m];
                    for (std::uint32_t n = 0; n < in_channels; ++n) {
                        for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                            const std::int64_t in_y =
                                static_cast<std::int64_t>(y) * stride -
                                pad + ky;
                            if (in_y < 0 || in_y >= h)
                                continue;
                            for (std::uint32_t kx = 0; kx < kernel;
                                 ++kx) {
                                const std::int64_t in_x =
                                    static_cast<std::int64_t>(x) *
                                        stride -
                                    pad + kx;
                                if (in_x < 0 || in_x >= w)
                                    continue;
                                acc += in.at4(b, n, in_y, in_x) *
                                       wt.at4(m, n, ky, kx);
                            }
                        }
                    }
                    out.at4(b, m, y, x) = acc;
                }
            }
        }
    }
    return out;
}

/** Reference conv backward: the scalar six-deep loop nest. */
Tensor
refConvBackward(const Tensor &in, const Tensor &wt, const Tensor &gout,
                Tensor &gwt, Tensor &gbias, std::uint32_t stride,
                std::uint32_t pad)
{
    const std::uint32_t batch = in.dim(0);
    const std::uint32_t in_channels = in.dim(1);
    const std::uint32_t h = in.dim(2);
    const std::uint32_t w = in.dim(3);
    const std::uint32_t out_channels = wt.dim(0);
    const std::uint32_t kernel = wt.dim(2);
    const std::uint32_t r = gout.dim(2);
    const std::uint32_t c = gout.dim(3);
    Tensor gin({batch, in_channels, h, w});
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    const float g = gout.at4(b, m, y, x);
                    gbias[m] += g;
                    for (std::uint32_t n = 0; n < in_channels; ++n) {
                        for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                            const std::int64_t in_y =
                                static_cast<std::int64_t>(y) * stride -
                                pad + ky;
                            if (in_y < 0 || in_y >= h)
                                continue;
                            for (std::uint32_t kx = 0; kx < kernel;
                                 ++kx) {
                                const std::int64_t in_x =
                                    static_cast<std::int64_t>(x) *
                                        stride -
                                    pad + kx;
                                if (in_x < 0 || in_x >= w)
                                    continue;
                                gwt.at4(m, n, ky, kx) +=
                                    g * in.at4(b, n, in_y, in_x);
                                gin.at4(b, n, in_y, in_x) +=
                                    g * wt.at4(m, n, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }
    return gin;
}

/** Reference dense backward. */
Tensor
refDenseBackward(const Tensor &in, const Tensor &wt, const Tensor &gout,
                 Tensor &gwt, Tensor &gbias)
{
    const std::uint32_t batch = in.dim(0);
    const std::uint32_t in_features = in.dim(1);
    const std::uint32_t out_features = wt.dim(0);
    Tensor gin({batch, in_features});
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t o = 0; o < out_features; ++o) {
            const float g = gout.at2(b, o);
            gbias[o] += g;
            for (std::uint32_t i = 0; i < in_features; ++i) {
                gwt.at2(o, i) += g * in.at2(b, i);
                gin.at2(b, i) += g * wt.at2(o, i);
            }
        }
    }
    return gin;
}

/** Reference 2x2 max pooling: forward plus the argmax backward. */
Tensor
refMaxPoolBackward(const Tensor &in, const Tensor &gout, Tensor &out)
{
    const std::uint32_t batch = in.dim(0);
    const std::uint32_t channels = in.dim(1);
    const std::uint32_t r = in.dim(2) / 2;
    const std::uint32_t c = in.dim(3) / 2;
    out = Tensor({batch, channels, r, c});
    Tensor gin(in.shape());
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float best = -1e30f;
                    std::uint32_t best_off = 0;
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float v =
                                in.at4(b, ch, 2 * y + dy, 2 * x + dx);
                            if (v > best) {
                                best = v;
                                best_off = dy * 2 + dx;
                            }
                        }
                    }
                    out.at4(b, ch, y, x) = best;
                    gin.at4(b, ch, 2 * y + best_off / 2,
                            2 * x + best_off % 2) +=
                        gout.at4(b, ch, y, x);
                }
            }
        }
    }
    return gin;
}

struct ConvShape
{
    std::uint32_t batch, in_channels, out_channels, h, w;
    std::uint32_t kernel, stride, pad;
};

/** Forward, then two backward calls with no zeroGrad in between. */
void
checkConv(const ConvShape &s, Rng &rng, const FixedPointFormat *quant)
{
    SCOPED_TRACE(::testing::Message()
                 << "B" << s.batch << " N" << s.in_channels << " M"
                 << s.out_channels << " " << s.h << "x" << s.w << " K"
                 << s.kernel << " s" << s.stride << " p" << s.pad
                 << (quant != nullptr ? " quantized" : ""));
    Conv2dLayer layer(s.in_channels, s.out_channels, s.kernel, s.stride,
                      s.pad, rng);
    const std::vector<Param> params = layer.params();
    randomize(*params[1].value, rng);
    Tensor input({s.batch, s.in_channels, s.h, s.w});
    randomize(input, rng);

    Tensor eff_input = input;
    Tensor eff_weights = *params[0].value;
    if (quant != nullptr) {
        quantizeTensor(eff_input, *quant);
        quantizeTensor(eff_weights, *quant);
    }
    const Tensor ref_out = refConvForward(eff_input, eff_weights,
                                          *params[1].value, s.stride,
                                          s.pad);

    ForwardContext eval;
    eval.quant = quant;
    eval.training = false;
    EXPECT_TRUE(sameBits(layer.forward(input, eval), ref_out));

    ForwardContext train;
    train.quant = quant;
    const Tensor out = layer.forward(input, train);
    ASSERT_TRUE(sameBits(out, ref_out));

    Tensor ref_gwt(params[0].grad->shape());
    Tensor ref_gbias(params[1].grad->shape());
    for (int call = 0; call < 2; ++call) {
        Tensor gout(out.shape());
        randomize(gout, rng);
        const Tensor gin = layer.backward(gout);
        const Tensor ref_gin =
            refConvBackward(eff_input, eff_weights, gout, ref_gwt,
                            ref_gbias, s.stride, s.pad);
        EXPECT_TRUE(sameBits(gin, ref_gin)) << "grad_input, call " << call;
        EXPECT_TRUE(sameBits(*params[0].grad, ref_gwt))
            << "weightGrad, call " << call;
        EXPECT_TRUE(sameBits(*params[1].grad, ref_gbias))
            << "biasGrad, call " << call;
    }
}

TEST(TrainLanes, ConvMatchesScalarReference)
{
    // Kernel sizes 1, 2, 3, 5 and 7 and 1-20 output channels: every
    // channel-group width of the weight-gradient kernel (8, 4, 2, 1)
    // and every remainder after the 8-wide groups.
    const std::uint32_t kernels[] = {1, 2, 3, 5, 7};
    const std::uint32_t batches[] = {1, 3, 7, 32, 128};
    std::set<std::uint32_t> tested_out_channels;
    Rng rng(2024);
    for (std::uint32_t trial = 0; trial < 100; ++trial) {
        ConvShape s;
        s.kernel = kernels[rng.uniformInt(5)];
        s.stride = 1 + static_cast<std::uint32_t>(rng.uniformInt(2));
        s.pad = static_cast<std::uint32_t>(rng.uniformInt(3));
        s.batch = batches[trial / 20];
        s.in_channels = 1 + static_cast<std::uint32_t>(rng.uniformInt(16));
        s.out_channels = 1 + trial % 20;
        const std::uint32_t min_side =
            s.kernel > 2 * s.pad ? s.kernel - 2 * s.pad : 1;
        s.h = min_side + static_cast<std::uint32_t>(rng.uniformInt(9));
        s.w = min_side + static_cast<std::uint32_t>(rng.uniformInt(9));
        // Keep the scalar reference cheap on the wide batches: shrink
        // the input channels, then the input, before the outputs.
        const auto macs = [&s] {
            return static_cast<std::uint64_t>(s.batch) * s.in_channels *
                   s.out_channels * s.h * s.w * s.kernel * s.kernel;
        };
        while (macs() > (1u << 21)) {
            if (s.in_channels > 1)
                s.in_channels = (s.in_channels + 1) / 2;
            else if (s.h > min_side || s.w > min_side)
                s.h = s.w = std::max(min_side, std::min(s.h, s.w) - 1);
            else
                s.out_channels = (s.out_channels + 1) / 2;
        }
        tested_out_channels.insert(s.out_channels);
        checkConv(s, rng, nullptr);
    }
    for (std::uint32_t m = 1; m <= 20; ++m)
        EXPECT_TRUE(tested_out_channels.count(m)) << m << " channels";
}

TEST(TrainLanes, QuantizedConvMatchesScalarReference)
{
    const FixedPointFormat format{12};
    Rng rng(77);
    checkConv({32, 8, 8, 8, 8, 3, 1, 1}, rng, &format);
    checkConv({7, 4, 8, 6, 6, 5, 1, 2}, rng, &format);
    checkConv({3, 2, 4, 6, 6, 1, 2, 0}, rng, &format);
}

/**
 * -0 accumulators and an infinite gradient at a border position
 * tell "skip the padded tap" apart from "add g * 0" bit for bit.
 */
void
checkPaddedTaps(std::uint32_t in_channels, std::uint32_t out_channels,
                std::uint32_t kernel, std::uint32_t pad, Rng &rng)
{
    SCOPED_TRACE(::testing::Message() << "M" << out_channels << " K"
                                      << kernel << " p" << pad);
    Conv2dLayer layer(in_channels, out_channels, kernel, 1, pad, rng);
    const std::vector<Param> params = layer.params();
    Tensor input({5, in_channels, 6, 6});
    randomize(input, rng);
    ForwardContext ctx;
    const Tensor out = layer.forward(input, ctx);
    Tensor gout(out.shape());
    randomize(gout, rng);
    gout[0] = std::numeric_limits<float>::infinity();
    params[0].grad->fill(-0.0f);
    params[1].grad->fill(-0.0f);
    Tensor ref_gwt = *params[0].grad;
    Tensor ref_gbias = *params[1].grad;
    const Tensor gin = layer.backward(gout);
    const Tensor ref_gin = refConvBackward(input, *params[0].value, gout,
                                           ref_gwt, ref_gbias, 1, pad);
    EXPECT_TRUE(sameBits(gin, ref_gin));
    EXPECT_TRUE(sameBits(*params[0].grad, ref_gwt));
    EXPECT_TRUE(sameBits(*params[1].grad, ref_gbias));
}

TEST(TrainLanes, PaddedTapsContributeNothing)
{
    Rng rng(13);
    checkPaddedTaps(3, 4, 3, 1, rng);
    // Two channel groups (8 + 4) and a two-tap padded border.
    checkPaddedTaps(3, 12, 5, 2, rng);
}

TEST(TrainLanes, DenseBackwardMatchesScalarReference)
{
    Rng rng(5);
    for (std::uint32_t batch : {1u, 3u, 7u, 32u}) {
        const std::uint32_t in_features =
            1 + static_cast<std::uint32_t>(rng.uniformInt(200));
        const std::uint32_t out_features =
            1 + static_cast<std::uint32_t>(rng.uniformInt(12));
        DenseLayer layer(in_features, out_features, rng);
        const std::vector<Param> params = layer.params();
        randomize(*params[1].value, rng);
        Tensor input({batch, in_features});
        randomize(input, rng);
        ForwardContext ctx;
        const Tensor out = layer.forward(input, ctx);
        Tensor ref_gwt(params[0].grad->shape());
        Tensor ref_gbias(params[1].grad->shape());
        for (int call = 0; call < 2; ++call) {
            Tensor gout(out.shape());
            randomize(gout, rng);
            const Tensor gin = layer.backward(gout);
            const Tensor ref_gin = refDenseBackward(
                input, *params[0].value, gout, ref_gwt, ref_gbias);
            EXPECT_TRUE(sameBits(gin, ref_gin));
            EXPECT_TRUE(sameBits(*params[0].grad, ref_gwt));
            EXPECT_TRUE(sameBits(*params[1].grad, ref_gbias));
        }
    }
}

TEST(TrainLanes, MaxPoolAndReluMatchScalarReference)
{
    Rng rng(9);
    Tensor input({7, 3, 6, 8});
    randomize(input, rng);
    // Ties and signed zeros exercise the strict > and the -0 rounding.
    input[0] = input[1];
    input[5] = -0.0f;
    MaxPool2dLayer pool;
    ForwardContext ctx;
    const Tensor out = pool.forward(input, ctx);
    Tensor gout(out.shape());
    randomize(gout, rng);
    gout[0] = -0.0f;
    Tensor ref_out;
    const Tensor ref_gin = refMaxPoolBackward(input, gout, ref_out);
    EXPECT_TRUE(sameBits(out, ref_out));
    EXPECT_TRUE(sameBits(pool.backward(gout), ref_gin));

    ReluLayer relu;
    relu.forward(input, ctx);
    Tensor grad(input.shape());
    randomize(grad, rng);
    Tensor ref_grad = grad;
    for (std::size_t i = 0; i < ref_grad.size(); ++i) {
        if (input[i] <= 0.0f)
            ref_grad[i] = 0.0f;
    }
    EXPECT_TRUE(sameBits(relu.backward(grad), ref_grad));
}

TEST(TrainLanes, TrialBlockPlanSplitsAndPads)
{
    const auto blocks = [](std::uint32_t count, std::uint32_t block) {
        std::vector<std::array<std::uint32_t, 3>> out;
        for (const TrialBlock &b : planTrialBlocks(count, block))
            out.push_back({b.first, b.lanes, b.width});
        return out;
    };
    using Plan = std::vector<std::array<std::uint32_t, 3>>;
    EXPECT_EQ(blocks(0, 8), Plan{});
    EXPECT_EQ(blocks(23, 8), (Plan{{0, 8, 8}, {8, 8, 8}, {16, 7, 8}}));
    EXPECT_EQ(blocks(5, 3), (Plan{{0, 3, 4}, {3, 2, 2}}));
    EXPECT_EQ(blocks(33, 24), (Plan{{0, 16, 16}, {16, 16, 16}, {32, 1, 1}}));
    EXPECT_EQ(blocks(3, 1), (Plan{{0, 1, 1}, {1, 1, 1}, {2, 1, 1}}));
}

TEST(TrainLanes, PaddedTrialBlocksMatchOneLanePasses)
{
    // k real lanes (k = 1..16) run at the next templated width with
    // clean padding lanes; every real lane must equal a one-lane pass
    // over the same sample with the same injector seeds.
    const FixedPointFormat format{12};
    const double rate = 2e-3;
    for (const MiniModelKind kind : allMiniModels()) {
        Rng rng(31);
        const auto model = makeMiniModel(kind, 12, 4, rng);
        Tensor images({kMaxTrialLanes, 1, 12, 12});
        randomize(images, rng);
        for (std::uint32_t k = 1; k <= kMaxTrialLanes; ++k) {
            std::vector<BitErrorInjector> act;
            std::vector<BitErrorInjector> weight;
            act.reserve(k);
            weight.reserve(k);
            TrialForwardContext ctx;
            ctx.quant = &format;
            std::vector<std::uint32_t> samples;
            for (std::uint32_t l = 0; l < k; ++l) {
                act.emplace_back(rate, 100 * k + 2 * l + 1);
                weight.emplace_back(rate, 100 * k + 2 * l + 2);
                ctx.injectors.push_back(&act[l]);
                ctx.weightInjectors.push_back(&weight[l]);
                samples.push_back(l);
            }
            const std::vector<TrialBlock> plan = planTrialBlocks(k, k);
            ASSERT_EQ(plan.size(), 1u);
            const std::uint32_t width = plan[0].width;
            ASSERT_EQ(width, std::bit_ceil(k));
            padTrialLanes(ctx, width);
            ASSERT_EQ(ctx.lanes(), width);
            samples.resize(width, samples.front());
            const Tensor logits = model->forwardTrials(
                packSampleLanes(images, samples), ctx);
            for (std::uint32_t l = 0; l < k; ++l) {
                BitErrorInjector lane_act(rate, 100 * k + 2 * l + 1);
                BitErrorInjector lane_weight(rate, 100 * k + 2 * l + 2);
                TrialForwardContext one;
                one.quant = &format;
                one.injectors = {&lane_act};
                one.weightInjectors = {&lane_weight};
                const Tensor alone =
                    model->forwardTrials(packSampleLanes(images, {l}), one);
                EXPECT_TRUE(sameBits(extractTrialLane(logits, l),
                                     extractTrialLane(alone, 0)))
                    << miniModelName(kind) << ", " << k << " lanes, lane "
                    << l;
            }
        }
    }
}

TEST(TrainLanes, BackwardParamsMatchesBackward)
{
    // The trainer skips the first layer's input gradient; the
    // parameter gradients must not notice.
    for (const MiniModelKind kind : allMiniModels()) {
        Rng rng_a(5);
        Rng rng_b(5);
        const auto full = makeMiniModel(kind, 12, 4, rng_a);
        const auto lean = makeMiniModel(kind, 12, 4, rng_b);
        Tensor images({7, 1, 12, 12});
        randomize(images, rng_a);
        ForwardContext ctx;
        ctx.training = true;
        const Tensor out = full->forward(images, ctx);
        lean->forward(images, ctx);
        Tensor gout(out.shape());
        randomize(gout, rng_a);
        const Tensor gin = full->backward(gout);
        EXPECT_EQ(gin.shape(), images.shape());
        lean->backwardParams(gout);
        const std::vector<Param> a = full->params();
        const std::vector<Param> b = lean->params();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(sameBits(*a[i].grad, *b[i].grad))
                << miniModelName(kind) << ", param " << i;
        }
    }
}

} // namespace
} // namespace rana
