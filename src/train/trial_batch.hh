/**
 * @file
 * Lane-major kernels: trial lanes for the fault campaign and
 * serving, sample lanes for training.
 *
 * A campaign cell runs N independent corrupted forward passes over
 * the same test batch and the same shared weight store; only the
 * injected bit errors differ per trial. The batched path fuses a
 * block of trials into one pass by appending a *lane* dimension to
 * every activation tensor — layout {..., L} with the lane index
 * innermost — so the per-output multiply-accumulate runs on L
 * contiguous floats at a time and vectorizes across trials instead
 * of re-walking the network N times. The serving engine packs
 * distinct requests into the lanes the same way.
 *
 * The conv and dense kernels exist only at the templated widths 1,
 * 2, 4, 8 and 16, where the lane loop has a compile-time trip
 * count. planTrialBlocks splits a lane range into blocks and gives
 * each block the next width up; padTrialLanes fills the gap with
 * clean lanes, which carry no injectors and whose outputs are
 * dropped, so every real lane computes exactly what it would in a
 * block of its own.
 *
 * Training reuses the idiom with the minibatch in place of trials:
 * the training-mode convolution transposes its batch into blocks of
 * sample lanes and runs the same kernel with one weight broadcast
 * to every lane (weight lane stride 0). The backward pass runs the
 * input gradient on sample lanes and vectorizes the weight
 * gradient across one output channel's (n, ky, kx) accumulators.
 *
 * Bit-exactness contract: for every lane, the batched pass performs
 * exactly the per-element operations of the scalar reference in
 * exactly the reference order. Vectorization only spans *independent*
 * accumulators (different lanes, different output positions,
 * different weight taps), never reorders the additions inside one
 * accumulator, and the toolchain target (x86-64 baseline / AVX via
 * target_clones) has no FMA contraction, so the batched campaign is
 * bit-identical to the scalar one for any block size and the
 * trained weights are bit-identical to the scalar trainer's. The
 * robustness tests assert the former across lane counts; the
 * TrainLanes and TrainGolden tests assert the latter.
 */

#ifndef RANA_TRAIN_TRIAL_BATCH_HH_
#define RANA_TRAIN_TRIAL_BATCH_HH_

#include <cstdint>
#include <vector>

#include "train/error_injection.hh"
#include "train/fixed_point.hh"
#include "train/tensor.hh"

namespace rana {

/**
 * Per-batched-forward execution options: the fixed-point format
 * shared by every lane plus one injector pair per lane. Mirrors
 * ForwardContext, with the scalar injector slots widened to one
 * entry per trial lane (null entry = no injection on that lane).
 */
struct TrialForwardContext
{
    /** Quantize operands to fixed point (16-bit hardware model). */
    const FixedPointFormat *quant = nullptr;
    /** Per-lane activation injectors (size = lane count). */
    std::vector<BitErrorInjector *> injectors;
    /**
     * Per-lane weight injectors (size = lane count). A null entry
     * falls back to the lane's activation injector, exactly like
     * ForwardContext::weightInjector.
     */
    std::vector<BitErrorInjector *> weightInjectors;
    /** The bound weight store is already in format `quant`. */
    bool weightsPreQuantized = false;

    /** Number of trial lanes fused into the pass. */
    std::uint32_t lanes() const
    {
        return static_cast<std::uint32_t>(injectors.size());
    }
};

/** Widest templated kernel width; wider blocks are split. */
constexpr std::uint32_t kMaxTrialLanes = 16;

/**
 * One forward pass of a block plan: real lanes [first, first +
 * lanes) run at the templated kernel width `width`.
 */
struct TrialBlock
{
    std::uint32_t first = 0;
    std::uint32_t lanes = 0;
    std::uint32_t width = 0;
};

/**
 * Split `count` lanes into consecutive blocks of `block` lanes (at
 * most kMaxTrialLanes; the last block takes the remainder), each run
 * at std::bit_ceil of its lane count. @pre block >= 1.
 */
std::vector<TrialBlock> planTrialBlocks(std::uint32_t count,
                                        std::uint32_t block);

/**
 * Pad a block of real lanes to its kernel width: append clean lanes
 * (null injectors) to `ctx` up to `width`. The caller packs its input
 * at `width` lanes and reads back only the first (real) lanes.
 * @pre `width` is a templated width, ctx.lanes() <= width, and one
 * weight injector per lane.
 */
void padTrialLanes(TrialForwardContext &ctx, std::uint32_t width);

/**
 * Replicate a scalar-layout tensor across `lanes` trial lanes:
 * shape {...} becomes {..., lanes} with every element repeated
 * `lanes` times (lane index innermost).
 */
Tensor packTrialLanes(const Tensor &scalar, std::uint32_t lanes);

/**
 * Extract one lane of a lane-major tensor back into scalar layout
 * (drops the trailing lane dimension).
 */
Tensor extractTrialLane(const Tensor &stacked, std::uint32_t lane);

/**
 * Gather one sample per lane from a {B, ...} batch tensor into a
 * lane-major tensor {1, ..., L}: lane l carries the whole sample
 * `indices[l]` (out[i * L + l] = sample_l[i]). Where packTrialLanes
 * replicates one tensor across lanes that differ only in injected
 * errors, this packs *distinct* samples — the serving engine's
 * request coalescing, where every lane is a different tenant
 * request riding the same batched forward. @pre indices non-empty
 * and every index < B.
 */
Tensor packSampleLanes(const Tensor &batch,
                       const std::vector<std::uint32_t> &indices);

/**
 * Quantize-dequantize every element in place; bit-identical to
 * quantizeTensor (verified exhaustively over all float bit
 * patterns), but with the format assertion hoisted out of the loop
 * and a branch-free rounding formulation the compiler vectorizes.
 */
void quantizeTrialSpan(float *data, std::size_t count,
                       const FixedPointFormat &format);

/** In-place ReLU over a span: v = max(0, v), as the scalar layer. */
void reluTrialSpan(float *data, std::size_t count);

/** Element-wise dst[i] += src[i] (the residual skip connection). */
void addTrialSpan(float *dst, const float *src, std::size_t count);

/**
 * Lane-major convolution: activations {B, N, H, W, L}, packed
 * weights {M, N, K, K, L}, bias {M, L}, output {B, M, R, C, L}.
 * Per lane, accumulates bias + sum over (n, ky, kx) of the valid
 * taps in exactly the scalar kernel's order. @pre `lanes` is a
 * templated width (a power of two up to kMaxTrialLanes).
 */
void convolveTrialLanes(const float *in, const float *wt,
                        const float *bias, float *out,
                        std::uint32_t batch, std::uint32_t in_channels,
                        std::uint32_t h, std::uint32_t w,
                        std::uint32_t out_channels, std::uint32_t r,
                        std::uint32_t c, std::uint32_t kernel,
                        std::uint32_t stride, std::uint32_t pad,
                        std::uint32_t lanes);

/**
 * Lane-major dense layer: input {B, F, L}, packed weights {O, F, L},
 * bias {O, L}, output {B, O, L}. One sequential dot product per
 * (output, lane), as the scalar kernel. @pre `lanes` is a templated
 * width.
 */
void denseTrialLanes(const float *in, const float *wt,
                     const float *bias, float *out, std::uint32_t batch,
                     std::uint32_t in_features,
                     std::uint32_t out_features, std::uint32_t lanes);

/**
 * Lane-major 2x2/stride-2 max pooling: input {B, C, H, W, L},
 * output {B, C, H/2, W/2, L}. Candidate order and the strict
 * greater-than comparison match the scalar layer.
 */
void maxPoolTrialLanes(const float *in, float *out, std::uint32_t batch,
                       std::uint32_t channels, std::uint32_t h,
                       std::uint32_t w, std::uint32_t lanes);

/**
 * Lane-major 2x2/stride-2 average pooling: input {B, C, H, W, L},
 * output {B, C, H/2, W/2, L}. Summation order matches the scalar
 * layer.
 */
void avgPoolTrialLanes(const float *in, float *out, std::uint32_t batch,
                       std::uint32_t channels, std::uint32_t h,
                       std::uint32_t w, std::uint32_t lanes);

/**
 * Reusable buffers of the sample-lane training kernels. A training
 * layer owns one and hands it to every call, so the lane-major
 * transposes (and the weight gradient's position-major
 * grad_output rows, in lanesOut) reuse their storage across
 * minibatches; eval-mode callers that may run concurrently pass a
 * call-local instance instead.
 */
struct SampleLaneScratch
{
    std::vector<float> lanesIn;
    std::vector<float> lanesOut;
    std::vector<float> acc;
    std::vector<float> flipped;
    std::vector<std::uint32_t> taps;
};

/**
 * Training-mode convolution on sample lanes: input {B, N, H, W},
 * weights {M, N, K, K}, bias {M}, output {B, M, R, C}, all in the
 * scalar layout. The minibatch is transposed into lane blocks and
 * run through the same kernel as convolveTrialLanes with one weight
 * broadcast to every lane. Per sample, every output accumulates
 * bias + sum over (n, ky, kx) of the valid taps in exactly that
 * order.
 */
void convolveSamples(const float *in, const float *wt, const float *bias,
                     float *out, std::uint32_t batch,
                     std::uint32_t in_channels, std::uint32_t h,
                     std::uint32_t w, std::uint32_t out_channels,
                     std::uint32_t r, std::uint32_t c,
                     std::uint32_t kernel, std::uint32_t stride,
                     std::uint32_t pad, SampleLaneScratch &scratch);

/**
 * Input gradient of convolveSamples: grad_output {B, M, R, C} and
 * weights {M, N, K, K} give grad_input {B, N, H, W} (overwritten).
 * Per sample, every input element sums its contributions in
 * (m, y, x) order starting from zero, on sample lanes.
 */
void convolveSamplesInputGrad(const float *gout, const float *wt,
                              float *gin, std::uint32_t batch,
                              std::uint32_t in_channels,
                              std::uint32_t h, std::uint32_t w,
                              std::uint32_t out_channels,
                              std::uint32_t r, std::uint32_t c,
                              std::uint32_t kernel,
                              std::uint32_t stride, std::uint32_t pad,
                              SampleLaneScratch &scratch);

/**
 * Parameter gradients of convolveSamples, accumulated (+=) into
 * gwt {M, N, K, K} and gbias {M}. Every accumulator adds its
 * contributions in (b, y, x) order, and padded taps contribute
 * nothing. grad_output is transposed into position-major rows
 * {B, R, C, M}; the kernel vectorizes across groups of up to 8
 * output channels and keeps the accumulators of one tap row
 * (n, ky) in registers while it sweeps every output position.
 */
void convolveSamplesParamGrad(const float *in, const float *gout,
                              float *gwt, float *gbias,
                              std::uint32_t batch,
                              std::uint32_t in_channels,
                              std::uint32_t h, std::uint32_t w,
                              std::uint32_t out_channels,
                              std::uint32_t r, std::uint32_t c,
                              std::uint32_t kernel,
                              std::uint32_t stride, std::uint32_t pad,
                              SampleLaneScratch &scratch);

/**
 * Dense backward: input {B, F}, weights {O, F}, grad_output {B, O}.
 * Accumulates gwt {O, F} and gbias {O} in b order and adds
 * grad_input {B, F} (caller-zeroed) in o order, as the scalar
 * reference.
 */
void denseBackward(const float *in, const float *wt, const float *gout,
                   float *gin, float *gwt, float *gbias,
                   std::uint32_t batch, std::uint32_t in_features,
                   std::uint32_t out_features);

/** ReLU backward in place: grad = input <= 0 ? 0 : grad. */
void reluBackwardSpan(const float *in, float *grad, std::size_t count);

/**
 * Pack per-lane scalar-layout tensors into one lane-major buffer:
 * out[i * lanes + l] = lanes_ptrs[l][i]. Used for the per-lane
 * copy-on-corrupt weight copies.
 */
void packLanePointers(const std::vector<const float *> &lane_ptrs,
                      std::size_t count, float *out);

} // namespace rana

#endif // RANA_TRAIN_TRIAL_BATCH_HH_
