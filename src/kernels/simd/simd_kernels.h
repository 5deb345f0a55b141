// Vectorized + cache-blocked host kernels (HostLane::kSimd).
//
// Three hot paths, each bit-identical to its scalar reference kernel:
//
//   simd_conv2d / simd_linear      int8 conv & fully-connected cores. Each
//                                  output position stages an im2col column of
//                                  zero-point-shifted activations in scratch
//                                  (out-of-bounds taps stage 0, which
//                                  contributes 0*w like the scalar tap skip),
//                                  then a 4-filter register tile runs 16-lane
//                                  int16 multiply-accumulates over the shared
//                                  column (AVX2 _mm256_madd_epi16, or a
//                                  `#pragma omp simd` reduction).
//   simd_bitserial_conv2d/_linear  widened bit-serial LUT accumulate: all S
//                                  pool dot products are precomputed per
//                                  channel-group context (vectorized over the
//                                  contiguous s axis of an input-oriented
//                                  LUT), then the filter loop gathers 8
//                                  output channels per step
//                                  (_mm256_i32gather_epi32 over the packed
//                                  uint8 indices).
//   simd_xnor_conv2d_counts        XNOR popcount over 64-bit words (pairs of
//                                  packed 32-bit lanes fused per popcount).
//
// Bit-identity holds because integer accumulation is associative modulo
// 2^32 — reordering the adds cannot change the wrapped sum — and
// requantization stays scalar per output element. Cost counters tally the
// *scalar MCU reference* events (merged from the closed forms in
// sim/layer_cost.h, which tests pin to the scalar kernels event-for-event),
// so Session::estimate_latency keeps answering "what would this cost on the
// microcontroller" no matter which host lane produced the logits.
//
// The int8 and XNOR cores handle one image (their backends loop a batch
// through runtime::PerImageBackend); the bit-serial cores also have batched
// forms, below. All cores draw temporaries exclusively from the caller's
// ScratchArena; the *_scratch_bytes helpers report the exact upper bound the
// backends advertise through KernelBackend::scratch_bytes().
#pragma once

#include "core/arena.h"
#include "kernels/bitserial_conv.h"
#include "kernels/common.h"
#include "pool/lut.h"

namespace bswp::kernels::simd {

/// Vectorized int8 convolution into `out`; arguments mirror
/// kernels::baseline_conv2d plus the scratch arena for the column buffer.
void simd_conv2d(const QView& in, const QTensor& weights, const nn::ConvSpec& spec,
                 const Requant& rq, QView& out, ScratchArena& scratch,
                 sim::CostCounter* counter);

/// Vectorized int8 fully-connected layer into `out`.
void simd_linear(const QView& in, const QTensor& weights, const Requant& rq, QView& out,
                 ScratchArena& scratch, sim::CostCounter* counter);

/// Widened bit-serial pooled convolution into `out`. `variant` only selects
/// which scalar variant's cost counters to tally — every variant computes
/// the same sums, and this core always precomputes the full pool.
void simd_bitserial_conv2d(const QView& in, const PackedIndices& indices,
                           const pool::DotLut& lut, const nn::ConvSpec& spec, const Requant& rq,
                           BitSerialVariant variant, QView& out, ScratchArena& scratch,
                           sim::CostCounter* counter);

/// Widened bit-serial pooled fully-connected layer into `out`.
void simd_bitserial_linear(const QView& in, const PackedIndices& indices,
                           const pool::DotLut& lut, const Requant& rq,
                           BitSerialVariant variant, QView& out, ScratchArena& scratch,
                           sim::CostCounter* counter);

/// 64-bit-word XNOR popcount core; drop-in for binary::xnor_conv2d_counts
/// (same packed layouts, counts and counter tallies).
void simd_xnor_conv2d_counts(const uint32_t* in_bits, int in_ch, int h, int w,
                             const uint32_t* weight_bits, const nn::ConvSpec& spec,
                             int32_t* counts, sim::CostCounter* counter);

// --- batched bit-serial cores ------------------------------------------------
//
// Batch-N forms over arena slots at a fixed per-image element stride (image
// b reads `in.data + b * in_stride`, writes `out.data + b * out_stride`; the
// views describe image 0). They keep the LUT rows and index gathers hot
// across images, and the conv core stages the batch's input windows HWC once
// and unpacks one channel-group context of up to 8 images per transposed
// AVX2 pass. Per-image dot products are unchanged, so results and
// CostCounter tallies are byte-identical to `batch` per-image calls. The
// bit-serial family is the only one that keeps both a per-image and a
// batched core: its backends take the per-image core at batch 1, where it is
// faster, and the batched core at every larger batch (docs/kernels.md §5).

/// Batched widened bit-serial pooled convolution (see block comment above).
void simd_bitserial_conv2d_batch(const QView& in, std::size_t in_stride, int batch,
                                 const PackedIndices& indices, const pool::DotLut& lut,
                                 const nn::ConvSpec& spec, const Requant& rq,
                                 BitSerialVariant variant, QView& out, std::size_t out_stride,
                                 ScratchArena& scratch, sim::CostCounter* counter);

/// Batched widened bit-serial pooled fully-connected layer.
void simd_bitserial_linear_batch(const QView& in, std::size_t in_stride, int batch,
                                 const PackedIndices& indices, const pool::DotLut& lut,
                                 const Requant& rq, BitSerialVariant variant, QView& out,
                                 std::size_t out_stride, ScratchArena& scratch,
                                 sim::CostCounter* counter);

/// Scratch bytes simd_conv2d draws (one im2col column per group).
std::size_t simd_conv_scratch_bytes(const nn::ConvSpec& spec);

/// Scratch bytes simd_linear draws (one shifted copy of the input row).
std::size_t simd_linear_scratch_bytes(int in_features);

/// Scratch bytes the bit-serial cores draw (accumulators + precomputed pool
/// values + channel-group staging); covers both conv and linear.
std::size_t simd_bitserial_scratch_bytes(int out_ch, int pool_size, int group_size);

/// Scratch of the batched bit-serial linear core (batch-wide accumulator
/// array; pool values are shared across images).
std::size_t simd_bitserial_batch_scratch_bytes(int out_ch, int pool_size, int group_size,
                                               int batch);

/// Scratch of the batched bit-serial conv core: batch-wide accumulators plus
/// the batch's HWC-staged input windows (every channel-group read in the hot
/// context loop becomes one contiguous row instead of G strided loads).
std::size_t simd_bitserial_conv_batch_scratch_bytes(const nn::ConvSpec& spec, int in_h, int in_w,
                                                    int out_ch, int pool_size, int batch);

}  // namespace bswp::kernels::simd
