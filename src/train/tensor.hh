/**
 * @file
 * A minimal dense float tensor for the from-scratch training
 * framework behind the retention-aware training method.
 *
 * The tensor is row-major with up to 4 dimensions; convolutional
 * activations use {batch, channels, height, width}.
 */

#ifndef RANA_TRAIN_TENSOR_HH_
#define RANA_TRAIN_TENSOR_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace rana {

/** Dense row-major float tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<std::uint32_t> shape);

    /** Total element count. */
    std::size_t size() const { return data_.size(); }

    /** The shape vector. */
    const std::vector<std::uint32_t> &shape() const { return shape_; }

    /** Extent of one dimension. @pre dim < shape().size(). */
    std::uint32_t dim(std::size_t d) const;

    /** Raw storage. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 4-D element access for {n, c, h, w} tensors. */
    float &at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
               std::uint32_t w)
    {
        return data_[offset4(n, c, h, w)];
    }
    float at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
              std::uint32_t w) const
    {
        return data_[offset4(n, c, h, w)];
    }

    /** 2-D element access for {rows, cols} tensors. */
    float &at2(std::uint32_t r, std::uint32_t c)
    {
        return data_[static_cast<std::size_t>(r) * shape_[1] + c];
    }
    float at2(std::uint32_t r, std::uint32_t c) const
    {
        return data_[static_cast<std::size_t>(r) * shape_[1] + c];
    }

    /** Set every element to `value`. */
    void fill(float value);

    /**
     * Reinterpret with a new shape of identical element count
     * (no data movement).
     */
    Tensor reshaped(std::vector<std::uint32_t> new_shape) const;

    /** "{2,16,12,12}" style description. */
    std::string describeShape() const;

  private:
    std::size_t offset4(std::uint32_t n, std::uint32_t c,
                        std::uint32_t h, std::uint32_t w) const
    {
        return ((static_cast<std::size_t>(n) * shape_[1] + c) *
                    shape_[2] +
                h) *
                   shape_[3] +
               w;
    }

    std::vector<std::uint32_t> shape_;
    std::vector<float> data_;
};

} // namespace rana

#endif // RANA_TRAIN_TENSOR_HH_
