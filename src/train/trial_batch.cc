/**
 * @file
 * Lane-major kernels of the trial-batched campaign forward pass and
 * of the sample-lane training forward/backward pass.
 *
 * This translation unit is compiled at -O3 (see the CMakeLists) and
 * the hot kernels carry target_clones("default","avx"): the loader
 * picks the AVX clone on capable CPUs while the binary stays
 * runnable on baseline x86-64. The lane count of the conv and dense
 * kernels is a template parameter (1, 2, 4, 8 or 16), so the
 * innermost lane loop has a compile-time trip count and turns into
 * straight-line vector code. There is no runtime-width path: trial
 * blocks run at a templated width (planTrialBlocks, padTrialLanes)
 * and the minibatch is split into sample blocks of one.
 *
 * Every kernel keeps the scalar reference's per-accumulator
 * operation order — vectorization only spans independent lanes,
 * output positions, output channels and weight taps — so the
 * results match the scalar path bit for bit (no FMA contraction
 * exists at the x86-64 baseline or AVX feature levels).
 */

#include "train/trial_batch.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>

#include "util/logging.hh"

namespace rana {

namespace {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RANA_TRIAL_CLONES                                             \
    __attribute__((target_clones("default", "avx")))
#else
#define RANA_TRIAL_CLONES
#endif

/**
 * Weight elements per weight position: L packed per-trial copies
 * (lane stride WS = 1) or one weight broadcast to every sample lane
 * (WS = 0).
 */
template <std::uint32_t L, std::uint32_t WS>
constexpr std::size_t kWeightLanes = WS == 0 ? 1 : L;

/**
 * Convolution of one output channel `m` of one lane block over a
 * lane-major tensor, compile-time lane count and weight lane stride
 * WS (lane l reads weight element l * WS). `acc` is a
 * caller-provided {c, L} scratch row.
 */
template <std::uint32_t L, std::uint32_t WS>
RANA_TRIAL_CLONES void
convolveLanesOne(const float *__restrict in,
                 const float *__restrict wt,
                 const float *__restrict bias,
                 float *__restrict out, std::uint32_t b,
                 std::uint32_t m, std::uint32_t in_channels,
                 std::uint32_t h, std::uint32_t w,
                 std::uint32_t out_channels, std::uint32_t r,
                 std::uint32_t c, std::uint32_t kernel,
                 std::uint32_t stride, std::uint32_t pad,
                 float *__restrict acc)
{
    const std::size_t in_plane =
        static_cast<std::size_t>(h) * w * L;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t in_row = static_cast<std::size_t>(w) * L;
    const std::size_t out_plane =
        static_cast<std::size_t>(r) * c * L;
    constexpr std::size_t WL = kWeightLanes<L, WS>;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel * WL;
    float *out_m = out + (b * out_channels + m) * out_plane;
    const float *wt_m = wt + m * in_channels * wt_kernel;
    const float *bias_m = bias + static_cast<std::size_t>(m) * WL;
    for (std::uint32_t y = 0; y < r; ++y) {
        const std::int64_t base_y =
            static_cast<std::int64_t>(y) * stride - pad;
        for (std::uint32_t x = 0; x < c; ++x)
            for (std::uint32_t l = 0; l < L; ++l)
                acc[x * L + l] = bias_m[l * WS];
        for (std::uint32_t n = 0; n < in_channels; ++n) {
            const float *in_n = in + b * in_sample + n * in_plane;
            const float *wt_n = wt_m + n * wt_kernel;
            for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                const std::int64_t in_y = base_y + ky;
                if (in_y < 0 || in_y >= h)
                    continue;
                const float *row = in_n + in_y * in_row;
                const float *wt_row =
                    wt_n + static_cast<std::size_t>(ky) * kernel * WL;
                for (std::uint32_t kx = 0; kx < kernel; ++kx) {
                    // Valid x satisfy 0 <= x*stride + off < w.
                    const std::int64_t off =
                        static_cast<std::int64_t>(kx) - pad;
                    std::int64_t x_lo = 0;
                    if (off < 0) {
                        x_lo = (-off + stride - 1) / stride;
                    }
                    std::int64_t x_hi = 0;
                    if (w >= off + 1) {
                        x_hi = (w - 1 - off) / stride + 1;
                    }
                    x_hi = std::min<std::int64_t>(x_hi, c);
                    if (x_lo >= x_hi)
                        continue;
                    const float *__restrict wv =
                        wt_row + static_cast<std::size_t>(kx) * WL;
                    if (stride == 1) {
                        const float *src = row + off * L;
                        for (std::int64_t x = x_lo; x < x_hi; ++x) {
                            float *__restrict a = acc + x * L;
                            const float *__restrict s = src + x * L;
                            for (std::uint32_t l = 0; l < L; ++l)
                                a[l] += s[l] * wv[l * WS];
                        }
                    } else {
                        for (std::int64_t x = x_lo; x < x_hi; ++x) {
                            float *__restrict a = acc + x * L;
                            const float *__restrict s =
                                row + (x * stride + off) * L;
                            for (std::uint32_t l = 0; l < L; ++l)
                                a[l] += s[l] * wv[l * WS];
                        }
                    }
                }
            }
        }
        float *out_row = out_m + static_cast<std::size_t>(y) * c * L;
        for (std::size_t i = 0; i < static_cast<std::size_t>(c) * L;
             ++i)
            out_row[i] = acc[i];
    }
}

/**
 * Convolution of the output-channel pair {m, m+1} of one sample,
 * compile-time lane count. `acc` is a caller-provided {2, c, L}
 * scratch block.
 *
 * Pairing output channels reuses each loaded input vector for two
 * multiply-adds and keeps two independent accumulator chains in
 * flight, hiding the add latency the single-channel loop exposes.
 * Each channel's accumulation sequence is exactly the single-channel
 * order — pairing only interleaves independent accumulators — so
 * the result stays bit-identical to the scalar reference.
 */
template <std::uint32_t L, std::uint32_t WS>
RANA_TRIAL_CLONES void
convolveLanesPair(const float *__restrict in,
                  const float *__restrict wt,
                  const float *__restrict bias,
                  float *__restrict out, std::uint32_t b,
                  std::uint32_t m, std::uint32_t in_channels,
                  std::uint32_t h, std::uint32_t w,
                  std::uint32_t out_channels, std::uint32_t r,
                  std::uint32_t c, std::uint32_t kernel,
                  std::uint32_t stride, std::uint32_t pad,
                  float *__restrict acc)
{
    const std::size_t in_plane =
        static_cast<std::size_t>(h) * w * L;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t in_row = static_cast<std::size_t>(w) * L;
    const std::size_t out_plane =
        static_cast<std::size_t>(r) * c * L;
    constexpr std::size_t WL = kWeightLanes<L, WS>;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel * WL;
    float *out_m0 = out + (b * out_channels + m) * out_plane;
    float *out_m1 = out_m0 + out_plane;
    const float *wt_m0 = wt + m * in_channels * wt_kernel;
    const float *wt_m1 = wt_m0 + in_channels * wt_kernel;
    const float *bias_m0 = bias + static_cast<std::size_t>(m) * WL;
    const float *bias_m1 = bias_m0 + WL;
    float *__restrict a0 = acc;
    float *__restrict a1 = acc + static_cast<std::size_t>(c) * L;
    for (std::uint32_t y = 0; y < r; ++y) {
        const std::int64_t base_y =
            static_cast<std::int64_t>(y) * stride - pad;
        for (std::uint32_t x = 0; x < c; ++x)
            for (std::uint32_t l = 0; l < L; ++l) {
                a0[x * L + l] = bias_m0[l * WS];
                a1[x * L + l] = bias_m1[l * WS];
            }
        for (std::uint32_t n = 0; n < in_channels; ++n) {
            const float *in_n = in + b * in_sample + n * in_plane;
            const float *wt_n0 = wt_m0 + n * wt_kernel;
            const float *wt_n1 = wt_m1 + n * wt_kernel;
            for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                const std::int64_t in_y = base_y + ky;
                if (in_y < 0 || in_y >= h)
                    continue;
                const float *row = in_n + in_y * in_row;
                const float *wt_row0 =
                    wt_n0 + static_cast<std::size_t>(ky) * kernel * WL;
                const float *wt_row1 =
                    wt_n1 + static_cast<std::size_t>(ky) * kernel * WL;
                for (std::uint32_t kx = 0; kx < kernel; ++kx) {
                    // Valid x satisfy 0 <= x*stride + off < w.
                    const std::int64_t off =
                        static_cast<std::int64_t>(kx) - pad;
                    std::int64_t x_lo = 0;
                    if (off < 0) {
                        x_lo = (-off + stride - 1) / stride;
                    }
                    std::int64_t x_hi = 0;
                    if (w >= off + 1) {
                        x_hi = (w - 1 - off) / stride + 1;
                    }
                    x_hi = std::min<std::int64_t>(x_hi, c);
                    if (x_lo >= x_hi)
                        continue;
                    const float *__restrict wv0 =
                        wt_row0 + static_cast<std::size_t>(kx) * WL;
                    const float *__restrict wv1 =
                        wt_row1 + static_cast<std::size_t>(kx) * WL;
                    if (stride == 1) {
                        const float *src = row + off * L;
                        for (std::int64_t x = x_lo; x < x_hi; ++x) {
                            const float *__restrict s = src + x * L;
                            float *__restrict p0 = a0 + x * L;
                            float *__restrict p1 = a1 + x * L;
                            for (std::uint32_t l = 0; l < L; ++l) {
                                p0[l] += s[l] * wv0[l * WS];
                                p1[l] += s[l] * wv1[l * WS];
                            }
                        }
                    } else {
                        for (std::int64_t x = x_lo; x < x_hi; ++x) {
                            const float *__restrict s =
                                row + (x * stride + off) * L;
                            float *__restrict p0 = a0 + x * L;
                            float *__restrict p1 = a1 + x * L;
                            for (std::uint32_t l = 0; l < L; ++l) {
                                p0[l] += s[l] * wv0[l * WS];
                                p1[l] += s[l] * wv1[l * WS];
                            }
                        }
                    }
                }
            }
        }
        float *out_row0 =
            out_m0 + static_cast<std::size_t>(y) * c * L;
        float *out_row1 =
            out_m1 + static_cast<std::size_t>(y) * c * L;
        for (std::size_t i = 0; i < static_cast<std::size_t>(c) * L;
             ++i) {
            out_row0[i] = a0[i];
            out_row1[i] = a1[i];
        }
    }
}

/**
 * Convolution over one lane-major tensor with a compile-time lane
 * count and weight lane stride. `acc` is a caller-provided
 * {2, c, L} scratch block; `batch` counts lane blocks.
 *
 * Output channels are paired on narrow multi-input layers, where
 * the pairing measures 1.2-1.3x. Wide rows (c > 6) and single-input
 * layers stay on the one-channel path: there the second accumulator
 * row costs more than the input reuse earns (empirically tuned on
 * the campaign's MiniVgg/MiniAlexNet shapes).
 */
template <std::uint32_t L, std::uint32_t WS>
void
convolveLanesImpl(const float *__restrict in,
                  const float *__restrict wt,
                  const float *__restrict bias,
                  float *__restrict out, std::uint32_t batch,
                  std::uint32_t in_channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t out_channels,
                  std::uint32_t r, std::uint32_t c,
                  std::uint32_t kernel, std::uint32_t stride,
                  std::uint32_t pad, float *__restrict acc)
{
    for (std::uint32_t b = 0; b < batch; ++b) {
        std::uint32_t m = 0;
        if (in_channels >= 2 && c <= 6) {
            for (; m + 2 <= out_channels; m += 2)
                convolveLanesPair<L, WS>(in, wt, bias, out, b, m,
                                         in_channels, h, w,
                                         out_channels, r, c, kernel,
                                         stride, pad, acc);
        }
        for (; m < out_channels; ++m)
            convolveLanesOne<L, WS>(in, wt, bias, out, b, m,
                                    in_channels, h, w, out_channels, r,
                                    c, kernel, stride, pad, acc);
    }
}

/**
 * Run convolveLanesImpl at the compile-time width equal to `lanes`.
 * @pre `lanes` is a templated width.
 */
template <std::uint32_t WS>
void
convolveLanesFixed(const float *in, const float *wt, const float *bias,
                   float *out, std::uint32_t batch,
                   std::uint32_t in_channels, std::uint32_t h,
                   std::uint32_t w, std::uint32_t out_channels,
                   std::uint32_t r, std::uint32_t c,
                   std::uint32_t kernel, std::uint32_t stride,
                   std::uint32_t pad, std::uint32_t lanes, float *acc)
{
    switch (lanes) {
      case 16:
        convolveLanesImpl<16, WS>(in, wt, bias, out, batch, in_channels,
                                  h, w, out_channels, r, c, kernel,
                                  stride, pad, acc);
        return;
      case 8:
        convolveLanesImpl<8, WS>(in, wt, bias, out, batch, in_channels,
                                 h, w, out_channels, r, c, kernel,
                                 stride, pad, acc);
        return;
      case 4:
        convolveLanesImpl<4, WS>(in, wt, bias, out, batch, in_channels,
                                 h, w, out_channels, r, c, kernel,
                                 stride, pad, acc);
        return;
      case 2:
        convolveLanesImpl<2, WS>(in, wt, bias, out, batch, in_channels,
                                 h, w, out_channels, r, c, kernel,
                                 stride, pad, acc);
        return;
      case 1:
        convolveLanesImpl<1, WS>(in, wt, bias, out, batch, in_channels,
                                 h, w, out_channels, r, c, kernel,
                                 stride, pad, acc);
        return;
      default:
        panic("conv lane count ", lanes, " is not a templated width");
    }
}

/** Dense layer over lane-major operands, compile-time lane count. */
template <std::uint32_t L>
RANA_TRIAL_CLONES void
denseLanesImpl(const float *__restrict in, const float *__restrict wt,
               const float *__restrict bias,
               float *__restrict out, std::uint32_t batch,
               std::uint32_t in_features, std::uint32_t out_features)
{
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *in_b =
            in + static_cast<std::size_t>(b) * in_features * L;
        float *out_b =
            out + static_cast<std::size_t>(b) * out_features * L;
        for (std::uint32_t o = 0; o < out_features; ++o) {
            const float *wt_o =
                wt + static_cast<std::size_t>(o) * in_features * L;
            const float *bias_o =
                bias + static_cast<std::size_t>(o) * L;
            float acc[L];
            for (std::uint32_t l = 0; l < L; ++l)
                acc[l] = bias_o[l];
            for (std::uint32_t i = 0; i < in_features; ++i) {
                const float *__restrict s =
                    in_b + static_cast<std::size_t>(i) * L;
                const float *__restrict v =
                    wt_o + static_cast<std::size_t>(i) * L;
                for (std::uint32_t l = 0; l < L; ++l)
                    acc[l] += s[l] * v[l];
            }
            float *d = out_b + static_cast<std::size_t>(o) * L;
            for (std::uint32_t l = 0; l < L; ++l)
                d[l] = acc[l];
        }
    }
}

/**
 * Input gradient of a convolution over lane-major sample blocks, one
 * weight broadcast to every lane: the fallback for the geometries
 * the flipped-kernel path does not cover (stride > 1, pad >=
 * kernel), so it takes the lane count at run time. `gin` must be
 * zeroed by the caller.
 *
 * Each {n, iy, ix} accumulator receives g[m, y, x] * w[m, n, ky, kx]
 * for m, then y, then x ascending — the scalar backward's order.
 * The loop runs (m, y, n, ky) rows and, per input column ix, walks
 * that column's taps x = tap_x[ix] + j (kx = tap_kx[ix] - j *
 * stride) in ascending x. Vectorization spans only the independent
 * sample lanes.
 */
RANA_TRIAL_CLONES void
inputGradLanes(const float *__restrict gout, const float *__restrict wt,
               float *__restrict gin, std::uint32_t blocks,
               std::uint32_t in_channels, std::uint32_t h,
               std::uint32_t w, std::uint32_t out_channels,
               std::uint32_t r, std::uint32_t c, std::uint32_t kernel,
               std::uint32_t stride, std::uint32_t pad,
               std::uint32_t lanes, std::vector<std::uint32_t> &tap_table)
{
    // Taps of input column ix: output columns x with
    // x * stride + kx == ix + pad, kx in [0, kernel), x in [0, c).
    tap_table.assign(static_cast<std::size_t>(3) * w, 0);
    std::uint32_t *tap_x = tap_table.data();
    std::uint32_t *tap_kx = tap_x + w;
    std::uint32_t *taps = tap_kx + w;
    for (std::uint32_t ix = 0; ix < w; ++ix) {
        const std::int64_t t = static_cast<std::int64_t>(ix) + pad;
        const std::int64_t lo = t - static_cast<std::int64_t>(kernel) + 1;
        const std::int64_t x_first =
            lo <= 0 ? 0 : (lo + stride - 1) / stride;
        const std::int64_t x_last =
            std::min<std::int64_t>(c - 1, t / stride);
        if (x_last < x_first)
            continue;
        tap_x[ix] = static_cast<std::uint32_t>(x_first);
        tap_kx[ix] = static_cast<std::uint32_t>(t - x_first * stride);
        taps[ix] = static_cast<std::uint32_t>(x_last - x_first + 1);
    }
    const std::size_t in_row = static_cast<std::size_t>(w) * lanes;
    const std::size_t in_plane = in_row * h;
    const std::size_t out_row = static_cast<std::size_t>(c) * lanes;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
        const float *gout_blk =
            gout + static_cast<std::size_t>(blk) * out_channels * r *
                       out_row;
        float *gin_blk = gin + static_cast<std::size_t>(blk) *
                                   in_channels * in_plane;
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            const float *wt_m = wt + m * in_channels * wt_kernel;
            for (std::uint32_t y = 0; y < r; ++y) {
                const float *g_row =
                    gout_blk + (static_cast<std::size_t>(m) * r + y) *
                                   out_row;
                const std::int64_t base_y =
                    static_cast<std::int64_t>(y) * stride - pad;
                for (std::uint32_t n = 0; n < in_channels; ++n) {
                    const float *wt_n = wt_m + n * wt_kernel;
                    for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                        const std::int64_t in_y = base_y + ky;
                        if (in_y < 0 || in_y >= h)
                            continue;
                        float *d_row =
                            gin_blk + n * in_plane + in_y * in_row;
                        const float *wt_row = wt_n + ky * kernel;
                        for (std::uint32_t ix = 0; ix < w; ++ix) {
                            float *__restrict d = d_row + ix * lanes;
                            const float *g = g_row + tap_x[ix] * lanes;
                            for (std::uint32_t j = 0; j < taps[ix]; ++j) {
                                const float wj =
                                    wt_row[tap_kx[ix] - j * stride];
                                const float *__restrict gj = g + j * lanes;
                                for (std::uint32_t l = 0; l < lanes; ++l)
                                    d[l] += gj[l] * wj;
                            }
                        }
                    }
                }
            }
        }
    }
}

} // namespace

Tensor
packTrialLanes(const Tensor &scalar, std::uint32_t lanes)
{
    RANA_ASSERT(lanes > 0, "lane count must be positive");
    std::vector<std::uint32_t> shape = scalar.shape();
    shape.push_back(lanes);
    Tensor out(std::move(shape));
    const float *src = scalar.data();
    float *dst = out.data();
    const std::size_t count = scalar.size();
    for (std::size_t i = 0; i < count; ++i) {
        const float v = src[i];
        float *d = dst + i * lanes;
        for (std::uint32_t l = 0; l < lanes; ++l)
            d[l] = v;
    }
    return out;
}

Tensor
extractTrialLane(const Tensor &stacked, std::uint32_t lane)
{
    RANA_ASSERT(stacked.shape().size() >= 2,
                "lane-major tensors carry a trailing lane dimension");
    std::vector<std::uint32_t> shape = stacked.shape();
    const std::uint32_t lanes = shape.back();
    RANA_ASSERT(lane < lanes, "lane index out of range");
    shape.pop_back();
    Tensor out(std::move(shape));
    const float *src = stacked.data();
    float *dst = out.data();
    const std::size_t count = out.size();
    for (std::size_t i = 0; i < count; ++i)
        dst[i] = src[i * lanes + lane];
    return out;
}

Tensor
packSampleLanes(const Tensor &batch,
                const std::vector<std::uint32_t> &indices)
{
    RANA_ASSERT(!indices.empty(), "sample pack needs at least one lane");
    RANA_ASSERT(!batch.shape().empty(), "batch tensor has no shape");
    const std::uint32_t batch_size = batch.shape().front();
    const std::size_t sample_size = batch.size() / batch_size;
    const auto lanes = static_cast<std::uint32_t>(indices.size());
    std::vector<std::uint32_t> shape = batch.shape();
    shape.front() = 1;
    shape.push_back(lanes);
    Tensor out(std::move(shape));
    const float *src = batch.data();
    float *dst = out.data();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        RANA_ASSERT(indices[l] < batch_size,
                    "sample index out of range");
        const float *sample = src + indices[l] * sample_size;
        for (std::size_t i = 0; i < sample_size; ++i)
            dst[i * lanes + l] = sample[i];
    }
    return out;
}

RANA_TRIAL_CLONES void
quantizeTrialSpan(float *data, std::size_t count,
                  const FixedPointFormat &format)
{
    RANA_ASSERT(format.fracBits <= 15, "at most 15 fractional bits");
    const double scale = format.scale();
    for (std::size_t i = 0; i < count; ++i) {
        // copysign(floor(|d| + 0.5), d) equals std::round(d), and
        // skipping the int16 hop is exact because the clamped value
        // is already integral — both verified exhaustively over
        // every float bit pattern against FixedPointFormat::
        // quantize/dequantize.
        const double d = static_cast<double>(data[i]) * scale;
        const double rounded =
            std::copysign(std::floor(std::fabs(d) + 0.5), d);
        const double clamped =
            std::max(-32768.0, std::min(rounded, 32767.0));
        data[i] = static_cast<float>(clamped / scale);
    }
}

RANA_TRIAL_CLONES void
reluTrialSpan(float *data, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        data[i] = std::max(0.0f, data[i]);
}

RANA_TRIAL_CLONES void
addTrialSpan(float *__restrict dst, const float *__restrict src,
             std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        dst[i] += src[i];
}

std::vector<TrialBlock>
planTrialBlocks(std::uint32_t count, std::uint32_t block)
{
    RANA_ASSERT(block >= 1, "trial block of 0 lanes");
    block = std::min(block, kMaxTrialLanes);
    std::vector<TrialBlock> plan;
    plan.reserve((count + block - 1) / block);
    for (std::uint32_t first = 0; first < count; first += block) {
        const std::uint32_t lanes = std::min(block, count - first);
        plan.push_back({first, lanes, std::bit_ceil(lanes)});
    }
    return plan;
}

void
padTrialLanes(TrialForwardContext &ctx, std::uint32_t width)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(std::has_single_bit(width) && width <= kMaxTrialLanes,
                "trial block width ", width, " is not templated");
    RANA_ASSERT(lanes >= 1 && lanes <= width, "trial block of ", lanes,
                " lanes does not fit width ", width);
    RANA_ASSERT(ctx.weightInjectors.size() == lanes,
                "one weight injector slot per lane");
    ctx.injectors.resize(width, nullptr);
    ctx.weightInjectors.resize(width, nullptr);
}

void
convolveTrialLanes(const float *in, const float *wt, const float *bias,
                   float *out, std::uint32_t batch,
                   std::uint32_t in_channels, std::uint32_t h,
                   std::uint32_t w, std::uint32_t out_channels,
                   std::uint32_t r, std::uint32_t c,
                   std::uint32_t kernel, std::uint32_t stride,
                   std::uint32_t pad, std::uint32_t lanes)
{
    // Two accumulator rows: narrow layers pair output channels.
    std::vector<float> acc(static_cast<std::size_t>(2) * c * lanes);
    convolveLanesFixed<1>(in, wt, bias, out, batch, in_channels, h, w,
                          out_channels, r, c, kernel, stride, pad, lanes,
                          acc.data());
}

void
denseTrialLanes(const float *in, const float *wt, const float *bias,
                float *out, std::uint32_t batch,
                std::uint32_t in_features, std::uint32_t out_features,
                std::uint32_t lanes)
{
    switch (lanes) {
      case 16:
        denseLanesImpl<16>(in, wt, bias, out, batch, in_features,
                           out_features);
        return;
      case 8:
        denseLanesImpl<8>(in, wt, bias, out, batch, in_features,
                          out_features);
        return;
      case 4:
        denseLanesImpl<4>(in, wt, bias, out, batch, in_features,
                          out_features);
        return;
      case 2:
        denseLanesImpl<2>(in, wt, bias, out, batch, in_features,
                          out_features);
        return;
      case 1:
        denseLanesImpl<1>(in, wt, bias, out, batch, in_features,
                          out_features);
        return;
      default:
        panic("dense lane count ", lanes, " is not a templated width");
    }
}

RANA_TRIAL_CLONES void
maxPoolTrialLanes(const float *__restrict in, float *__restrict out,
                  std::uint32_t batch,
                  std::uint32_t channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t lanes)
{
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;
    const std::size_t in_row = static_cast<std::size_t>(w) * lanes;
    const std::size_t out_row = static_cast<std::size_t>(c) * lanes;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const float *in_plane =
                in + (static_cast<std::size_t>(b) * channels + ch) *
                         h * in_row;
            float *out_plane =
                out + (static_cast<std::size_t>(b) * channels + ch) *
                          r * out_row;
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float *d = out_plane + y * out_row +
                               static_cast<std::size_t>(x) * lanes;
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] = -1e30f;
                    // Candidate order (dy, dx) matches the scalar
                    // layer; per lane the strict > picks the same
                    // element.
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float *s =
                                in_plane +
                                (2 * y + dy) * in_row +
                                static_cast<std::size_t>(2 * x + dx) *
                                    lanes;
                            for (std::uint32_t l = 0; l < lanes;
                                 ++l) {
                                if (s[l] > d[l])
                                    d[l] = s[l];
                            }
                        }
                    }
                }
            }
        }
    }
}

RANA_TRIAL_CLONES void
avgPoolTrialLanes(const float *__restrict in, float *__restrict out,
                  std::uint32_t batch,
                  std::uint32_t channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t lanes)
{
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;
    const std::size_t in_row = static_cast<std::size_t>(w) * lanes;
    const std::size_t out_row = static_cast<std::size_t>(c) * lanes;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const float *in_plane =
                in + (static_cast<std::size_t>(b) * channels + ch) *
                         h * in_row;
            float *out_plane =
                out + (static_cast<std::size_t>(b) * channels + ch) *
                          r * out_row;
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float *d = out_plane + y * out_row +
                               static_cast<std::size_t>(x) * lanes;
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] = 0.0f;
                    // Summation order (dy, dx) matches the scalar
                    // layer.
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float *s =
                                in_plane +
                                (2 * y + dy) * in_row +
                                static_cast<std::size_t>(2 * x + dx) *
                                    lanes;
                            for (std::uint32_t l = 0; l < lanes; ++l)
                                d[l] += s[l];
                        }
                    }
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] *= 0.25f;
                }
            }
        }
    }
}

void
packLanePointers(const std::vector<const float *> &lane_ptrs,
                 std::size_t count, float *out)
{
    const auto lanes = static_cast<std::uint32_t>(lane_ptrs.size());
    for (std::size_t i = 0; i < count; ++i) {
        float *d = out + i * lanes;
        for (std::uint32_t l = 0; l < lanes; ++l)
            d[l] = lane_ptrs[l][i];
    }
}

namespace {

/**
 * Lane width of the sample-lane kernels for a minibatch of `batch`
 * samples: 16, or the next power of two for smaller batches. The
 * batch is split into blocks of this many lanes; the last block's
 * spare lanes are zero and never read back.
 */
std::uint32_t
sampleLaneWidth(std::uint32_t batch)
{
    return batch >= 16 ? 16 : std::bit_ceil(batch);
}

/**
 * Transpose a sample-major {B, F} buffer into lane blocks
 * {ceil(B / lanes), F, lanes}: sample b lands in block b / lanes,
 * lane b % lanes. Spare lanes of the last block are zero-filled.
 */
void
packSampleBlocks(const float *src, std::uint32_t batch,
                 std::size_t features, std::uint32_t lanes, float *dst)
{
    const std::uint32_t blocks = (batch + lanes - 1) / lanes;
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
        const std::uint32_t valid = std::min(lanes, batch - blk * lanes);
        const float *s = src + static_cast<std::size_t>(blk) * lanes *
                                   features;
        float *d = dst + static_cast<std::size_t>(blk) * features * lanes;
        for (std::size_t i = 0; i < features; ++i) {
            for (std::uint32_t l = 0; l < valid; ++l)
                d[i * lanes + l] = s[l * features + i];
            for (std::uint32_t l = valid; l < lanes; ++l)
                d[i * lanes + l] = 0.0f;
        }
    }
}

/** Inverse of packSampleBlocks (spare lanes are dropped). */
void
unpackSampleBlocks(const float *src, std::uint32_t batch,
                   std::size_t features, std::uint32_t lanes, float *dst)
{
    const std::uint32_t blocks = (batch + lanes - 1) / lanes;
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
        const std::uint32_t valid = std::min(lanes, batch - blk * lanes);
        const float *s = src + static_cast<std::size_t>(blk) * features *
                                   lanes;
        float *d = dst + static_cast<std::size_t>(blk) * lanes * features;
        for (std::uint32_t l = 0; l < valid; ++l)
            for (std::size_t i = 0; i < features; ++i)
                d[l * features + i] = s[i * lanes + l];
    }
}

} // namespace

void
convolveSamples(const float *in, const float *wt, const float *bias,
                float *out, std::uint32_t batch,
                std::uint32_t in_channels, std::uint32_t h,
                std::uint32_t w, std::uint32_t out_channels,
                std::uint32_t r, std::uint32_t c, std::uint32_t kernel,
                std::uint32_t stride, std::uint32_t pad,
                SampleLaneScratch &scratch)
{
    const std::uint32_t lanes = sampleLaneWidth(batch);
    const std::uint32_t blocks = (batch + lanes - 1) / lanes;
    const std::size_t in_sample =
        static_cast<std::size_t>(in_channels) * h * w;
    const std::size_t out_sample =
        static_cast<std::size_t>(out_channels) * r * c;
    scratch.lanesIn.resize(in_sample * blocks * lanes);
    scratch.lanesOut.resize(out_sample * blocks * lanes);
    scratch.acc.resize(static_cast<std::size_t>(2) * c * lanes);
    packSampleBlocks(in, batch, in_sample, lanes, scratch.lanesIn.data());
    convolveLanesFixed<0>(scratch.lanesIn.data(), wt, bias,
                          scratch.lanesOut.data(), blocks, in_channels, h,
                          w, out_channels, r, c, kernel, stride, pad,
                          lanes, scratch.acc.data());
    unpackSampleBlocks(scratch.lanesOut.data(), batch, out_sample, lanes,
                       out);
}

void
convolveSamplesInputGrad(const float *gout, const float *wt, float *gin,
                         std::uint32_t batch, std::uint32_t in_channels,
                         std::uint32_t h, std::uint32_t w,
                         std::uint32_t out_channels, std::uint32_t r,
                         std::uint32_t c, std::uint32_t kernel,
                         std::uint32_t stride, std::uint32_t pad,
                         SampleLaneScratch &scratch)
{
    const std::uint32_t lanes = sampleLaneWidth(batch);
    const std::uint32_t blocks = (batch + lanes - 1) / lanes;
    const std::size_t in_sample =
        static_cast<std::size_t>(in_channels) * h * w;
    const std::size_t out_sample =
        static_cast<std::size_t>(out_channels) * r * c;
    scratch.lanesOut.resize(out_sample * blocks * lanes);
    scratch.lanesIn.resize(in_sample * blocks * lanes);
    packSampleBlocks(gout, batch, out_sample, lanes,
                     scratch.lanesOut.data());
    if (stride == 1 && pad < kernel) {
        // Unit stride: the input gradient is the forward convolution
        // of grad_output with the transposed, flipped kernel W'[n, m,
        // ky, kx] = W[m, n, K-1-ky, K-1-kx] at padding K-1-pad and a
        // zero bias. Its (m, ky, kx) tap order is the (m, y, x)
        // order with y, x ascending, and the +0 bias is the zero
        // the reference accumulates onto.
        const std::size_t wt_kernel =
            static_cast<std::size_t>(kernel) * kernel;
        scratch.flipped.assign(
            wt_kernel * in_channels * out_channels + in_channels, 0.0f);
        float *flipped = scratch.flipped.data();
        for (std::uint32_t m = 0; m < out_channels; ++m)
            for (std::uint32_t n = 0; n < in_channels; ++n)
                for (std::size_t k = 0; k < wt_kernel; ++k)
                    flipped[(n * out_channels + m) * wt_kernel +
                            wt_kernel - 1 - k] =
                        wt[(m * in_channels + n) * wt_kernel + k];
        scratch.acc.resize(static_cast<std::size_t>(2) * w * lanes);
        convolveLanesFixed<0>(
            scratch.lanesOut.data(), flipped,
            flipped + wt_kernel * in_channels * out_channels,
            scratch.lanesIn.data(), blocks, out_channels, r, c,
            in_channels, h, w, kernel, 1, kernel - 1 - pad, lanes,
            scratch.acc.data());
        unpackSampleBlocks(scratch.lanesIn.data(), batch, in_sample,
                           lanes, gin);
        return;
    }
    std::fill(scratch.lanesIn.begin(), scratch.lanesIn.end(), 0.0f);
    inputGradLanes(scratch.lanesOut.data(), wt, scratch.lanesIn.data(),
                   blocks, in_channels, h, w, out_channels, r, c, kernel,
                   stride, pad, lanes, scratch.taps);
    unpackSampleBlocks(scratch.lanesIn.data(), batch, in_sample, lanes,
                       gin);
}

namespace {

/**
 * Operands of the weight-gradient kernels: the cached input
 * {B, N, H, W}, grad_output transposed into position-major rows
 * {B, R, C, M} and the weight gradient {M, N, K, K}.
 */
struct ParamGradOperands
{
    const float *in;
    const float *rows;
    float *gwt;
    std::uint32_t batch, inChannels, h, w, outChannels, r, c;
    std::uint32_t kernel, stride, pad;
};

/**
 * Output indices [first, second) of `outputs` whose tap at input
 * index i * stride + off lands inside [0, extent); empty ranges
 * have first == second.
 */
std::pair<std::uint32_t, std::uint32_t>
validOutputs(std::int64_t off, std::uint32_t stride, std::uint32_t extent,
             std::uint32_t outputs)
{
    const std::int64_t lo = off < 0 ? (-off + stride - 1) / stride : 0;
    const std::int64_t hi =
        extent >= off + 1 ? (extent - 1 - off) / stride + 1 : 0;
    const std::int64_t first = std::min<std::int64_t>(lo, outputs);
    return {static_cast<std::uint32_t>(first),
            static_cast<std::uint32_t>(
                std::max(first, std::min<std::int64_t>(hi, outputs)))};
}

/** G output channels' values at one position, as one vector. */
template <std::uint32_t G>
using ChannelVec [[gnu::vector_size(G * sizeof(float))]] = float;

/** Unaligned load of G channels (by reference: no vector ABI). */
template <std::uint32_t G>
void
loadChannels(ChannelVec<G> &v, const float *src)
{
    std::memcpy(&v, src, sizeof(v));
}

/**
 * Weight gradient of the taps (n0 .. n0 + NC - 1, ky, kx0 .. kx0 +
 * KC - 1) of the G output channels m0 .. m0 + G - 1. The NC x KC
 * accumulator vectors stay in registers across a sweep of every
 * output position in (b, y, x) order: one G-wide gradient load per
 * position, one broadcast input value per tap. Rows whose tap row
 * falls in the padding are skipped; within a row, the interior
 * columns (every tap valid) run branch-free and the border columns
 * test each tap, so padded taps are skipped rather than added as
 * g * 0.
 */
template <std::uint32_t G, std::uint32_t NC, std::uint32_t KC>
RANA_TRIAL_CLONES void
paramGradTaps(const ParamGradOperands &op, std::uint32_t m0,
              std::uint32_t n0, std::uint32_t ky, std::uint32_t kx0)
{
    const std::size_t kernel_taps =
        static_cast<std::size_t>(op.kernel) * op.kernel;
    const std::size_t taps_per_m = kernel_taps * op.inChannels;
    float *gw = op.gwt + m0 * taps_per_m + n0 * kernel_taps +
                static_cast<std::size_t>(ky) * op.kernel + kx0;
    ChannelVec<G> acc[NC][KC];
    for (std::uint32_t i = 0; i < NC; ++i)
        for (std::uint32_t k = 0; k < KC; ++k)
            for (std::uint32_t g = 0; g < G; ++g)
                acc[i][k][g] = gw[g * taps_per_m + i * kernel_taps + k];

    // Per tap, the output columns [x_lo, x_hi) it reads inside a
    // row; every tap is valid on the interior [lo, hi).
    const std::int64_t off_x = static_cast<std::int64_t>(kx0) - op.pad;
    std::uint32_t x_lo[KC];
    std::uint32_t x_hi[KC];
    std::uint32_t lo = 0;
    std::uint32_t hi = op.c;
    for (std::uint32_t k = 0; k < KC; ++k) {
        std::tie(x_lo[k], x_hi[k]) =
            validOutputs(off_x + k, op.stride, op.w, op.c);
        lo = std::max(lo, x_lo[k]);
        hi = std::min(hi, x_hi[k]);
    }
    hi = std::max(hi, lo);
    const std::int64_t off_y = static_cast<std::int64_t>(ky) - op.pad;
    const auto [y_lo, y_hi] = validOutputs(off_y, op.stride, op.h, op.r);
    const std::int64_t stride = op.stride;
    const std::size_t channels = op.outChannels;
    const std::size_t in_plane = static_cast<std::size_t>(op.h) * op.w;
    const std::size_t row_stride = op.c * channels;
    for (std::uint32_t b = 0; b < op.batch; ++b) {
        const float *in_n =
            op.in + (static_cast<std::size_t>(b) * op.inChannels + n0) *
                        in_plane;
        for (std::uint32_t y = y_lo; y < y_hi; ++y) {
            const float *__restrict row =
                in_n + (y * stride + off_y) * op.w;
            const float *__restrict g_row =
                op.rows + (static_cast<std::size_t>(b) * op.r + y) *
                              row_stride +
                m0;
            // Border columns test each tap; at x == lo the interior
            // [lo, hi) runs untested, then the border resumes at hi.
            for (std::uint32_t x = 0; x < op.c; ++x) {
                if (x == lo) {
                    for (; x < hi; ++x) {
                        ChannelVec<G> gv;
                        loadChannels<G>(gv, g_row + x * channels);
                        const float *__restrict src =
                            row + (x * stride + off_x);
                        for (std::uint32_t i = 0; i < NC; ++i)
                            for (std::uint32_t k = 0; k < KC; ++k)
                                acc[i][k] += gv * src[i * in_plane + k];
                    }
                    if (x == op.c)
                        break;
                }
                ChannelVec<G> gv;
                loadChannels<G>(gv, g_row + x * channels);
                const std::int64_t base = x * stride + off_x;
                for (std::uint32_t i = 0; i < NC; ++i)
                    for (std::uint32_t k = 0; k < KC; ++k)
                        if (x >= x_lo[k] && x < x_hi[k])
                            acc[i][k] +=
                                gv * row[i * in_plane + base + k];
            }
        }
    }

    for (std::uint32_t i = 0; i < NC; ++i)
        for (std::uint32_t k = 0; k < KC; ++k)
            for (std::uint32_t g = 0; g < G; ++g)
                gw[g * taps_per_m + i * kernel_taps + k] = acc[i][k][g];
}

/** Accumulator vectors one sweep holds in registers. */
constexpr std::uint32_t kMaxAccumulators = 12;

/**
 * The taps (n, ky, kx0 .. kx0 + KC - 1) of every input channel n:
 * as many input channels per sweep as kMaxAccumulators allows, then
 * one at a time.
 */
template <std::uint32_t G, std::uint32_t KC>
void
paramGradTapColumns(const ParamGradOperands &op, std::uint32_t m0,
                    std::uint32_t ky, std::uint32_t kx0)
{
    constexpr std::uint32_t NC =
        std::bit_floor(std::max(1u, kMaxAccumulators / KC));
    std::uint32_t n = 0;
    if constexpr (NC > 1)
        for (; n + NC <= op.inChannels; n += NC)
            paramGradTaps<G, NC, KC>(op, m0, n, ky, kx0);
    for (; n < op.inChannels; ++n)
        paramGradTaps<G, 1, KC>(op, m0, n, ky, kx0);
}

/** Widest tap chunk held in registers at once. */
constexpr std::uint32_t kMaxTapChunk = 8;

/** paramGradTapColumns for a runtime chunk width kc <= KC. */
template <std::uint32_t G, std::uint32_t KC = kMaxTapChunk>
void
paramGradTapChunk(std::uint32_t kc, const ParamGradOperands &op,
                  std::uint32_t m0, std::uint32_t ky, std::uint32_t kx0)
{
    if constexpr (KC > 1) {
        if (kc < KC) {
            paramGradTapChunk<G, KC - 1>(kc, op, m0, ky, kx0);
            return;
        }
    }
    paramGradTapColumns<G, KC>(op, m0, ky, kx0);
}

/**
 * Bias and weight gradients of the G output channels from m0: the
 * bias sums the transposed rows in (b, y, x) order, and each tap row
 * ky runs in chunks of at most kMaxTapChunk taps.
 */
template <std::uint32_t G>
RANA_TRIAL_CLONES void
paramGradGroup(const ParamGradOperands &op, float *__restrict gbias,
               std::uint32_t m0)
{
    ChannelVec<G> bias;
    loadChannels<G>(bias, gbias + m0);
    const std::size_t positions =
        static_cast<std::size_t>(op.batch) * op.r * op.c;
    for (std::size_t p = 0; p < positions; ++p) {
        ChannelVec<G> gv;
        loadChannels<G>(gv, op.rows + p * op.outChannels + m0);
        bias += gv;
    }
    std::memcpy(gbias + m0, &bias, sizeof(bias));

    for (std::uint32_t ky = 0; ky < op.kernel; ++ky)
        for (std::uint32_t kx0 = 0; kx0 < op.kernel; kx0 += kMaxTapChunk)
            paramGradTapChunk<G>(std::min(op.kernel - kx0, kMaxTapChunk),
                                 op, m0, ky, kx0);
}

} // namespace

void
convolveSamplesParamGrad(const float *in, const float *gout, float *gwt,
                         float *gbias, std::uint32_t batch,
                         std::uint32_t in_channels, std::uint32_t h,
                         std::uint32_t w, std::uint32_t out_channels,
                         std::uint32_t r, std::uint32_t c,
                         std::uint32_t kernel, std::uint32_t stride,
                         std::uint32_t pad, SampleLaneScratch &scratch)
{
    // grad_output {B, M, R, C} -> position-major rows {B, R, C, M}, so
    // a channel group's gradients at one position are one vector.
    const std::size_t positions = static_cast<std::size_t>(r) * c;
    scratch.lanesOut.resize(positions * batch * out_channels);
    float *rows = scratch.lanesOut.data();
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *src = gout + b * positions * out_channels;
        float *dst = rows + b * positions * out_channels;
        for (std::uint32_t m = 0; m < out_channels; ++m)
            for (std::size_t p = 0; p < positions; ++p)
                dst[p * out_channels + m] = src[m * positions + p];
    }
    const ParamGradOperands op{in, rows, gwt, batch, in_channels, h, w,
                               out_channels, r, c, kernel, stride, pad};
    // Channel groups of 8, then one each of 4, 2 and 1 for the rest.
    std::uint32_t m0 = 0;
    for (; m0 + 8 <= out_channels; m0 += 8)
        paramGradGroup<8>(op, gbias, m0);
    if (m0 + 4 <= out_channels) {
        paramGradGroup<4>(op, gbias, m0);
        m0 += 4;
    }
    if (m0 + 2 <= out_channels) {
        paramGradGroup<2>(op, gbias, m0);
        m0 += 2;
    }
    if (m0 < out_channels)
        paramGradGroup<1>(op, gbias, m0);
}

RANA_TRIAL_CLONES void
denseBackward(const float *__restrict in, const float *__restrict wt,
              const float *__restrict gout, float *__restrict gin,
              float *__restrict gwt, float *__restrict gbias,
              std::uint32_t batch, std::uint32_t in_features,
              std::uint32_t out_features)
{
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *in_b =
            in + static_cast<std::size_t>(b) * in_features;
        float *gin_b = gin + static_cast<std::size_t>(b) * in_features;
        for (std::uint32_t o = 0; o < out_features; ++o) {
            const float g =
                gout[static_cast<std::size_t>(b) * out_features + o];
            gbias[o] += g;
            float *gwt_o =
                gwt + static_cast<std::size_t>(o) * in_features;
            const float *wt_o =
                wt + static_cast<std::size_t>(o) * in_features;
            for (std::uint32_t i = 0; i < in_features; ++i) {
                gwt_o[i] += g * in_b[i];
                gin_b[i] += g * wt_o[i];
            }
        }
    }
}

RANA_TRIAL_CLONES void
reluBackwardSpan(const float *__restrict in, float *__restrict grad,
                 std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        grad[i] = in[i] <= 0.0f ? 0.0f : grad[i];
}

} // namespace rana
