// Registry adapters for the SIMD host kernel family (HostLane::kSimd keys).
//
// Registered only when the library is built with BSWP_SIMD=ON; otherwise
// register_simd_backends is a no-op and SIMD-lane plans resolve to the
// scalar backends through KernelRegistry::find's scalar-lane fallback. One
// bit-serial implementation serves all five variant keys — the variants are
// bit-identical by contract and differ only in the MCU cost tallied.
#include <algorithm>

#include "binary/binary_backend.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

class SimdConvBackend : public PerImageBackend {
 public:
  const char* name() const override { return "simd/conv"; }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    (void)net;
    (void)batch;
    return kernels::simd::simd_conv_scratch_bytes(plan.spec);
  }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::simd::simd_conv2d(ctx.input(0), ctx.plan.qweights, ctx.plan.spec, ctx.plan.rq,
                               *ctx.out, *ctx.scratch, ctx.counter);
  }
};

class SimdLinearBackend : public PerImageBackend {
 public:
  const char* name() const override { return "simd/linear"; }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    (void)net;
    (void)batch;
    return kernels::simd::simd_linear_scratch_bytes(plan.qweights.dim(1));
  }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::simd::simd_linear(ctx.input(0), ctx.plan.qweights, ctx.plan.rq, *ctx.out,
                               *ctx.scratch, ctx.counter);
  }
};

// The bit-serial backends keep both cores: the per-image one is faster at
// batch 1, the batched one at every larger batch (docs/kernels.md §5), so
// execute() picks by ctx.batch and scratch_bytes() covers both.

class SimdBitSerialConvBackend : public KernelBackend {
 public:
  explicit SimdBitSerialConvBackend(kernels::BitSerialVariant v) : variant_(v) {}
  const char* name() const override { return "simd/bitserial-conv"; }
  void execute(const ExecContext& ctx) const override {
    if (ctx.batch == 1) {
      kernels::simd::simd_bitserial_conv2d(ctx.input(0), ctx.plan.indices, ctx.net.lut,
                                           ctx.plan.spec, ctx.plan.rq, variant_, *ctx.out,
                                           *ctx.scratch, ctx.counter);
      return;
    }
    kernels::simd::simd_bitserial_conv2d_batch(ctx.input(0), ctx.input_stride(0), ctx.batch,
                                               ctx.plan.indices, ctx.net.lut, ctx.plan.spec,
                                               ctx.plan.rq, variant_, *ctx.out,
                                               ctx.plan.out_elems(), *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    const std::size_t one = kernels::simd::simd_bitserial_scratch_bytes(
        plan.spec.out_ch, net.lut.pool_size, net.lut.group_size);
    if (batch == 1) return one;
    // The batched core additionally stages the batch's input windows in HWC
    // layout; the producing plan's out_chw gives the input geometry.
    const std::vector<int>& chw = net.plans[static_cast<std::size_t>(plan.inputs[0])].out_chw;
    return std::max(one, kernels::simd::simd_bitserial_conv_batch_scratch_bytes(
                             plan.spec, chw[1], chw[2], plan.spec.out_ch, net.lut.pool_size,
                             batch));
  }

 private:
  kernels::BitSerialVariant variant_;
};

class SimdBitSerialLinearBackend : public KernelBackend {
 public:
  explicit SimdBitSerialLinearBackend(kernels::BitSerialVariant v) : variant_(v) {}
  const char* name() const override { return "simd/bitserial-linear"; }
  void execute(const ExecContext& ctx) const override {
    if (ctx.batch == 1) {
      kernels::simd::simd_bitserial_linear(ctx.input(0), ctx.plan.indices, ctx.net.lut,
                                           ctx.plan.rq, variant_, *ctx.out, *ctx.scratch,
                                           ctx.counter);
      return;
    }
    kernels::simd::simd_bitserial_linear_batch(ctx.input(0), ctx.input_stride(0), ctx.batch,
                                               ctx.plan.indices, ctx.net.lut, ctx.plan.rq,
                                               variant_, *ctx.out, ctx.plan.out_elems(),
                                               *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    const std::size_t one = kernels::simd::simd_bitserial_scratch_bytes(
        plan.indices.out_ch, net.lut.pool_size, net.lut.group_size);
    if (batch == 1) return one;
    return std::max(one, kernels::simd::simd_bitserial_batch_scratch_bytes(
                             plan.indices.out_ch, net.lut.pool_size, net.lut.group_size, batch));
  }

 private:
  kernels::BitSerialVariant variant_;
};

}  // namespace

namespace detail {

void register_simd_backends(KernelRegistry& r) {
  if (!kernels::simd::compiled()) return;
  r.add(PlanKind::kConvBaseline, kSimdKeyOffset, std::make_unique<SimdConvBackend>());
  r.add(PlanKind::kLinearBaseline, kSimdKeyOffset, std::make_unique<SimdLinearBackend>());
  using kernels::BitSerialVariant;
  for (BitSerialVariant v :
       {BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
        BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize}) {
    r.add(PlanKind::kConvBitSerial, kSimdKeyOffset + static_cast<int>(v),
          std::make_unique<SimdBitSerialConvBackend>(v));
    r.add(PlanKind::kLinearBitSerial, kSimdKeyOffset + static_cast<int>(v),
          std::make_unique<SimdBitSerialLinearBackend>(v));
  }
  r.add(PlanKind::kConvBinary, kSimdKeyOffset,
        binary::make_xnor_conv_backend("simd/xnor-conv",
                                       kernels::simd::simd_xnor_conv2d_counts));
}

}  // namespace detail
}  // namespace bswp::runtime
