/**
 * @file
 * Layer interface of the from-scratch training framework.
 *
 * Layers implement forward/backward with cached activations. The
 * ForwardContext carries the fixed-point quantization format and the
 * retention-error injector: when present, every weighted layer
 * quantizes its input and weights to 16-bit fixed point and injects
 * bit-level retention failures before computing, exactly as the
 * retention-aware training method prescribes (a mask on each layer's
 * inputs and weights, Figure 9). Gradients flow through the
 * corrupted values (straight-through estimation), and the optimizer
 * updates the float master weights.
 */

#ifndef RANA_TRAIN_LAYER_HH_
#define RANA_TRAIN_LAYER_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "train/error_injection.hh"
#include "train/fixed_point.hh"
#include "train/tensor.hh"
#include "util/random.hh"

namespace rana {

struct TrialForwardContext;

/** Per-forward-pass execution options. */
struct ForwardContext
{
    /** Quantize operands to fixed point (16-bit hardware model). */
    const FixedPointFormat *quant = nullptr;
    /** Inject retention failures into quantized operands. */
    BitErrorInjector *injector = nullptr;
    /**
     * Separate injector for weight operands (nullptr: weights use
     * `injector` like everything else). The fault campaign uses this
     * because weight and activation banks see different exposure
     * times, hence different effective failure rates.
     */
    BitErrorInjector *weightInjector = nullptr;
    /**
     * The model's weight tensors are already in the fixed-point
     * format `quant` (a pre-quantized shared weight store), so the
     * per-layer re-quantization is a no-op and is skipped. Combined
     * with an inactive weight injector this makes the weight path
     * copy-on-corrupt: the shared tensors are read in place and a
     * private copy is made only when bit errors are actually
     * injected.
     */
    bool weightsPreQuantized = false;
    /** Whether activations are cached for a following backward. */
    bool training = true;
};

/** One learnable parameter with its gradient accumulator. */
struct Param
{
    Tensor *value = nullptr;
    Tensor *grad = nullptr;
};

/**
 * Hands out externally owned parameter tensors in params() order so
 * a model can *bind* a shared immutable weight store instead of
 * owning a private copy. Campaign trials bind one store into one
 * skeleton model and run their (eval-only) corrupted forward passes
 * against it — no per-trial weight copies.
 */
class SharedParamCursor
{
  public:
    explicit SharedParamCursor(const std::vector<Tensor> &store)
        : store_(store)
    {
    }

    /** The next shared tensor; null once the store is exhausted. */
    const Tensor *next()
    {
        if (index_ >= store_.size())
            return nullptr;
        return &store_[index_++];
    }

    /** Tensors handed out so far. */
    std::size_t consumed() const { return index_; }

    /** Whether every store tensor has been handed out. */
    bool exhausted() const { return index_ == store_.size(); }

  private:
    const std::vector<Tensor> &store_;
    std::size_t index_ = 0;
};

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Compute the layer's output for `input` under `ctx`. */
    virtual Tensor forward(const Tensor &input,
                           const ForwardContext &ctx) = 0;

    /**
     * Eval-mode forward over a lane-major trial batch: `input`
     * carries the scalar shape plus a trailing lane dimension, and
     * `ctx` one injector pair per lane (see train/trial_batch.hh).
     * Per lane the result is bit-identical to forward() with the
     * lane's injectors. The input is taken by value: callers move
     * activations they no longer need, and layers quantize, corrupt
     * and activate them in place instead of copying. The base
     * implementation panics; every campaign-reachable layer
     * overrides it.
     */
    virtual Tensor forwardTrials(Tensor input,
                                 const TrialForwardContext &ctx);

    /**
     * Back-propagate `grad_output`, accumulating parameter
     * gradients, and return the gradient w.r.t. the input.
     */
    virtual Tensor backward(const Tensor &grad_output) = 0;

    /**
     * Back-propagate `grad_output` for the parameter gradients only,
     * when nothing reads the input gradient (the first layer of a
     * model). Accumulates exactly what backward() does. The base
     * implementation runs backward() and drops its result.
     */
    virtual void backwardParams(const Tensor &grad_output)
    {
        backward(grad_output);
    }

    /** Learnable parameters (empty for stateless layers). */
    virtual std::vector<Param> params() { return {}; }

    /**
     * Bind shared parameter tensors from `cursor` (one per params()
     * entry, in the same order). Bound layers read the shared
     * tensors during eval-mode forward passes instead of their own;
     * training a bound model is a usage error. Stateless layers
     * consume nothing.
     */
    virtual void bindSharedParams(SharedParamCursor &cursor)
    {
        (void)cursor;
    }

    /** Short human-readable description. */
    virtual std::string describe() const = 0;
};

/**
 * Immutable shared weight snapshot: many concurrent consumers bind
 * the same store; nobody writes through it.
 */
using WeightStore = std::shared_ptr<const std::vector<Tensor>>;

/**
 * Bind `store` into `model` in params() order. Asserts that the
 * store's tensor count and shapes match the model exactly.
 */
void bindSharedWeights(Layer &model, const std::vector<Tensor> &store);

/**
 * Apply the context's quantization and error injection to an
 * operand, returning the effective (possibly corrupted) tensor the
 * hardware would compute with.
 */
Tensor effectiveOperand(const Tensor &operand,
                        const ForwardContext &ctx);

/**
 * Like effectiveOperand, but for weight operands: uses the context's
 * weightInjector when one is set.
 */
Tensor effectiveWeights(const Tensor &weights,
                        const ForwardContext &ctx);

/**
 * Copy-on-corrupt weight transformation: returns the quantized /
 * corrupted private copy the hardware would compute with, or
 * std::nullopt when `weights` passes through untouched (no
 * quantization pending because the store is pre-quantized, and no
 * active weight injector) — the caller then reads `weights` in
 * place with zero copies.
 */
std::optional<Tensor> corruptedWeights(const Tensor &weights,
                                       const ForwardContext &ctx);

/** Initialize a tensor with He-uniform fan-in scaling. */
void heInitialize(Tensor &tensor, std::uint32_t fan_in, Rng &rng);

} // namespace rana

#endif // RANA_TRAIN_LAYER_HH_
