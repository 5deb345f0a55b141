// CMSIS-NN-style int8 reference kernels (the paper's Table 7 baseline).
//
// Functionally these are plain integer convolution / linear / pooling
// kernels; their instrumentation mirrors arm_convolve_HWC_q7_basic on a
// Cortex-M3: an im2col copy of each input patch into an SRAM column buffer,
// then a MAC loop streaming weights sequentially from flash.
//
// Each kernel has one core, for one image: a view core that writes into a
// caller-provided (arena) output view — the form the Executor's backends
// call, zero-allocation; they loop a batch through runtime::PerImageBackend —
// and an owning-QTensor wrapper over that core kept for tests, benches and
// one-off callers. The conv/linear cores are the only int8 path of a
// BSWP_SIMD=OFF build, and the conv core is the one checked against a float
// reference (tests/test_baseline_kernels.cpp).
#pragma once

#include "kernels/common.h"

namespace bswp::kernels {

// --- arena (view) cores ------------------------------------------------------

/// int8 convolution into `out`. `in` is 1xCxHxW (signed or unsigned,
/// zero_point 0); `weights` is OIHW signed int8. Output is quantized via
/// `rq`; `out.data` must hold out_ch * oh * ow elements.
void baseline_conv2d(const QView& in, const QTensor& weights, const nn::ConvSpec& spec,
                     const Requant& rq, QView& out, sim::CostCounter* counter);

/// int8 fully-connected layer into `out`; `in` is flat (1xF).
void baseline_linear(const QView& in, const QTensor& weights, const Requant& rq, QView& out,
                     sim::CostCounter* counter);

/// Max pooling in the quantized domain (scale-preserving) into `out`.
void maxpool_q(const QView& in, int k, int stride, QView& out, sim::CostCounter* counter);

/// Global average pooling with requantization into `out`.
void global_avgpool_q(const QView& in, const Requant& rq, QView& out, sim::CostCounter* counter);

/// Residual add into `out`: out = requantize(a.scale*qa + b.scale*qb).
/// `rq.scale` is ignored; input scales are used directly (per-tensor).
void add_q(const QView& a, const QView& b, const Requant& rq, QView& out,
           sim::CostCounter* counter);

// --- owning wrappers ---------------------------------------------------------

QTensor baseline_conv2d(const QTensor& input, const QTensor& weights, const nn::ConvSpec& spec,
                        const Requant& rq, sim::CostCounter* counter);
QTensor baseline_linear(const QTensor& input, const QTensor& weights, const Requant& rq,
                        sim::CostCounter* counter);
QTensor maxpool_q(const QTensor& input, int k, int stride, sim::CostCounter* counter);
QTensor global_avgpool_q(const QTensor& input, const Requant& rq, sim::CostCounter* counter);
QTensor add_q(const QTensor& a, const QTensor& b, const Requant& rq, sim::CostCounter* counter);

/// Scratch SRAM the baseline conv needs on the modeled MCU (im2col column
/// buffer), in bytes. The host kernel reads the activation map directly and
/// needs no scratch; this feeds the simulator's memory plan.
std::size_t baseline_conv_scratch_bytes(const nn::ConvSpec& spec);

}  // namespace bswp::kernels
