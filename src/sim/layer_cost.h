// First-principles per-layer cost model for bit-serial variant selection.
//
// Every kernel in bswp::kernels tallies typed sim::Event counts as it
// executes, and those counts are exact functions of layer geometry and (for
// the memoized variant) of the packed pool indices — never of activation
// values. This header reproduces the tallies in closed form so the compile
// pipeline's SelectBackends pass can price every bit-serial variant of a
// pooled layer *without running it*: estimate the CostCounter, price it with
// the MCU profile, pick the cheapest. tests/test_layer_cost.cpp asserts these
// estimates equal the counters the real kernels produce, event for event, so
// the model cannot drift from the kernels without a test failure. They model
// the MCU only: the host lane (scalar vs SIMD) is chosen by a measured rule,
// not priced here, and the SIMD kernels tally these same scalar counts.
#pragma once

#include "kernels/bitserial_conv.h"
#include "pool/lut.h"
#include "sim/cost_counter.h"

namespace bswp::sim {

/// Exact event counts of kernels::bitserial_conv2d for one inference of a
/// pooled conv layer. `in_h`/`in_w` are the input spatial dims, `act_bits`
/// the bitwidth M of the *input* activation (the bit-serial loop depth).
CostCounter bitserial_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                const pool::DotLut& lut, const kernels::PackedIndices& indices,
                                kernels::BitSerialVariant variant);

/// Exact event counts of kernels::bitserial_linear (`in_features` inputs).
CostCounter bitserial_linear_cost(int in_features, int act_bits, const pool::DotLut& lut,
                                  const kernels::PackedIndices& indices,
                                  kernels::BitSerialVariant variant);

/// Exact event counts of kernels::baseline_conv2d (CMSIS-like int8 conv).
CostCounter baseline_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w);

/// Exact event counts of kernels::baseline_linear.
CostCounter baseline_linear_cost(int in_features, int out_features);

}  // namespace bswp::sim
