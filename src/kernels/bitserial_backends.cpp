// Registry adapters for the bit-serial LUT kernels. Each BitSerialVariant is
// registered as its own backend so ablations and future per-variant
// replacements (e.g. a SIMD host build of kCachedPrecompute) can swap one
// variant without touching the others. Each backend runs the family's one
// (batched) core at every batch size, batch 1 included. Accumulators,
// precompute/memo buffers and channel-group staging come from the executor's
// scratch arena.
#include "kernels/bitserial_conv.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

class BitSerialConvBackend : public KernelBackend {
 public:
  explicit BitSerialConvBackend(kernels::BitSerialVariant v) : variant_(v) {
    name_ = std::string("bitserial/conv-") + kernels::variant_name(v);
  }
  const char* name() const override { return name_.c_str(); }
  void execute(const ExecContext& ctx) const override {
    kernels::bitserial_conv2d_batch(ctx.input(0), ctx.input_stride(0), ctx.batch, ctx.plan.indices,
                                    ctx.net.lut, ctx.plan.spec, ctx.plan.rq, variant_, *ctx.out,
                                    ctx.plan.out_elems(), *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    return kernels::bitserial_host_batch_scratch_bytes(plan.spec.out_ch, net.lut.pool_size,
                                                       net.lut.group_size, batch);
  }

 private:
  kernels::BitSerialVariant variant_;
  std::string name_;
};

class BitSerialLinearBackend : public KernelBackend {
 public:
  explicit BitSerialLinearBackend(kernels::BitSerialVariant v) : variant_(v) {
    name_ = std::string("bitserial/linear-") + kernels::variant_name(v);
  }
  const char* name() const override { return name_.c_str(); }
  void execute(const ExecContext& ctx) const override {
    kernels::bitserial_linear_batch(ctx.input(0), ctx.input_stride(0), ctx.batch, ctx.plan.indices,
                                    ctx.net.lut, ctx.plan.rq, variant_, *ctx.out,
                                    ctx.plan.out_elems(), *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan,
                            int batch) const override {
    return kernels::bitserial_host_batch_scratch_bytes(plan.indices.out_ch, net.lut.pool_size,
                                                       net.lut.group_size, batch);
  }

 private:
  kernels::BitSerialVariant variant_;
  std::string name_;
};

}  // namespace

namespace detail {

void register_bitserial_backends(KernelRegistry& r) {
  using kernels::BitSerialVariant;
  for (BitSerialVariant v :
       {BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
        BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize}) {
    r.add(PlanKind::kConvBitSerial, static_cast<int>(v),
          std::make_unique<BitSerialConvBackend>(v));
    r.add(PlanKind::kLinearBitSerial, static_cast<int>(v),
          std::make_unique<BitSerialLinearBackend>(v));
  }
}

}  // namespace detail
}  // namespace bswp::runtime
