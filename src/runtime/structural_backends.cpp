// Structural (non-arithmetic) backends: input quantization, flatten, relu.
//
// All three are per-image kernels (PerImageBackend loops a batch) that write
// straight into their arena output view; none needs scratch.
#include <algorithm>
#include <cmath>

#include "quant/quantize.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

/// Quantizes the raw float image into the input plan's int8 domain. Rejects
/// anything input_shape_error() rejects — a mismatched image would otherwise
/// be read out of range by the first conv.
class InputBackend : public PerImageBackend {
 public:
  const char* name() const override { return "structural/input"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    check(ctx.image != nullptr, "engine: input plan executed without an image");
    const Tensor& img = *ctx.image;
    const std::string error = input_shape_error(img, ctx.plan.out_chw);
    if (!error.empty()) throw std::invalid_argument(error);
    const int off = img.rank() - 3;  // skip the leading 1 of a 1xCxHxW image
    kernels::QView& out = *ctx.out;
    out.set_shape({1, img.dim(off), img.dim(off + 1), img.dim(off + 2)});
    out.bits = 8;
    out.is_signed = true;
    out.scale = ctx.plan.out.scale;
    out.zero_point = 0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      out.data[i] = static_cast<int16_t>(
          quant::clamp_q(static_cast<int32_t>(std::lround(img[i] / out.scale)), -128, 127));
    }
  }
};

class FlattenBackend : public PerImageBackend {
 public:
  const char* name() const override { return "structural/flatten"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    const kernels::QView& in = ctx.input(0);
    kernels::QView& out = *ctx.out;
    out.set_shape({1, static_cast<int>(in.size())});
    out.set_meta(in);
    std::copy(in.data, in.data + in.size(), out.data);
  }
};

class ReluBackend : public PerImageBackend {
 public:
  const char* name() const override { return "structural/relu"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    const kernels::QView& in = ctx.input(0);
    kernels::QView& out = *ctx.out;
    out.rank = in.rank;
    for (int i = 0; i < in.rank; ++i) out.shape[i] = in.shape[i];
    out.len = in.len;
    out.set_meta(in);
    const auto zp = static_cast<int16_t>(in.zero_point);
    for (std::size_t i = 0; i < in.size(); ++i) out.data[i] = std::max(in.data[i], zp);
    if (ctx.counter != nullptr) {
      ctx.counter->add(sim::Event::kSramRead, in.size());
      ctx.counter->add(sim::Event::kAlu, in.size());
      ctx.counter->add(sim::Event::kSramWrite, in.size());
    }
  }
};

}  // namespace

std::string input_shape_error(const Tensor& image, const std::vector<int>& want_chw) {
  const int off = image.rank() - 3;
  if (off != 0 && !(off == 1 && image.dim(0) == 1)) {
    return "engine: input must be a single CHW image";
  }
  const int c = image.dim(off), h = image.dim(off + 1), w = image.dim(off + 2);
  if (want_chw.size() == 3 && (c != want_chw[0] || h != want_chw[1] || w != want_chw[2])) {
    return "engine: input image shape " + std::to_string(c) + "x" + std::to_string(h) + "x" +
           std::to_string(w) + " does not match the network input " +
           std::to_string(want_chw[0]) + "x" + std::to_string(want_chw[1]) + "x" +
           std::to_string(want_chw[2]);
  }
  return {};
}

namespace detail {

void register_structural_backends(KernelRegistry& r) {
  r.add(PlanKind::kInput, kAnyVariant, std::make_unique<InputBackend>());
  r.add(PlanKind::kFlatten, kAnyVariant, std::make_unique<FlattenBackend>());
  r.add(PlanKind::kRelu, kAnyVariant, std::make_unique<ReluBackend>());
}

}  // namespace detail
}  // namespace bswp::runtime
