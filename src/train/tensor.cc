/**
 * @file
 * Implementation of the dense tensor.
 */

#include "train/tensor.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace rana {

namespace {

std::size_t
shapeSize(const std::vector<std::uint32_t> &shape)
{
    std::size_t total = 1;
    for (std::uint32_t extent : shape)
        total *= extent;
    return shape.empty() ? 0 : total;
}

} // namespace

Tensor::Tensor(std::vector<std::uint32_t> shape)
    : shape_(std::move(shape)), data_(shapeSize(shape_), 0.0f)
{
    for (std::uint32_t extent : shape_)
        RANA_ASSERT(extent > 0, "tensor dimensions must be positive");
}

std::uint32_t
Tensor::dim(std::size_t d) const
{
    RANA_ASSERT(d < shape_.size(), "tensor dimension out of range");
    return shape_[d];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Tensor
Tensor::reshaped(std::vector<std::uint32_t> new_shape) const
{
    RANA_ASSERT(shapeSize(new_shape) == size(),
                "reshape must preserve the element count");
    Tensor result(std::move(new_shape));
    std::copy(data_.begin(), data_.end(), result.data_.begin());
    return result;
}

std::string
Tensor::describeShape() const
{
    std::ostringstream oss;
    oss << "{";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << shape_[i];
    }
    oss << "}";
    return oss.str();
}

} // namespace rana
