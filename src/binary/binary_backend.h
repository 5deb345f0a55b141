// Bridge between the binarized (§5.5) kernels and the runtime's
// kernel-backend registry: builds PlanKind::kConvBinary layer plans that the
// engine executes through the registered XNOR backend.
#pragma once

#include <memory>

#include "binary/binarized.h"
#include "runtime/compressed_network.h"

namespace bswp::runtime {
class KernelBackend;
}  // namespace bswp::runtime

namespace bswp::binary {

/// Signature of an XNOR popcount counts core (binary::xnor_conv2d_counts and
/// its SIMD twin kernels::simd::simd_xnor_conv2d_counts).
using XnorCountsFn = void (*)(const uint32_t* in_bits, int in_ch, int h, int w,
                              const uint32_t* weight_bits, const nn::ConvSpec& spec,
                              int32_t* counts, sim::CostCounter* counter);

/// The kConvBinary backend over `counts`, registered once per host lane
/// under `name` (a string literal). Its execute() packs the weights once per
/// call and loops the images through `counts`.
std::unique_ptr<runtime::KernelBackend> make_xnor_conv_backend(const char* name,
                                                               XnorCountsFn counts);

/// Build a kConvBinary plan from float weights (entries of any magnitude;
/// XNOR-Net alpha = mean|w| per filter is folded into `rq.scale`, the stored
/// qweights are the signs). `rq.scale` must have spec.out_ch entries.
runtime::LayerPlan make_binary_conv_plan(const Tensor& w, const nn::ConvSpec& spec,
                                         const kernels::Requant& rq);

}  // namespace bswp::binary
