// Registry adapters for the CMSIS-like int8 kernels (conv / linear / pooling
// / residual add). Every kernel here handles one image, so every backend is
// a PerImageBackend; all execute straight into the arena output view and
// none of the host kernels needs scratch.
#include "kernels/baseline_conv.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

class BaselineConvBackend : public PerImageBackend {
 public:
  const char* name() const override { return "baseline/conv"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::baseline_conv2d(ctx.input(0), ctx.plan.qweights, ctx.plan.spec, ctx.plan.rq,
                             *ctx.out, ctx.counter);
  }
};

class BaselineLinearBackend : public PerImageBackend {
 public:
  const char* name() const override { return "baseline/linear"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::baseline_linear(ctx.input(0), ctx.plan.qweights, ctx.plan.rq, *ctx.out, ctx.counter);
  }
};

class MaxPoolBackend : public PerImageBackend {
 public:
  const char* name() const override { return "baseline/maxpool"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::maxpool_q(ctx.input(0), ctx.plan.pool_k, ctx.plan.pool_stride, *ctx.out,
                       ctx.counter);
  }
};

class GlobalAvgPoolBackend : public PerImageBackend {
 public:
  const char* name() const override { return "baseline/gap"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::global_avgpool_q(ctx.input(0), ctx.plan.rq, *ctx.out, ctx.counter);
  }
};

class AddBackend : public PerImageBackend {
 public:
  const char* name() const override { return "baseline/add"; }

 protected:
  void execute_image(const ExecContext& ctx) const override {
    kernels::add_q(ctx.input(0), ctx.input(1), ctx.plan.rq, *ctx.out, ctx.counter);
  }
};

}  // namespace

namespace detail {

void register_baseline_backends(KernelRegistry& r) {
  r.add(PlanKind::kConvBaseline, kAnyVariant, std::make_unique<BaselineConvBackend>());
  r.add(PlanKind::kLinearBaseline, kAnyVariant, std::make_unique<BaselineLinearBackend>());
  r.add(PlanKind::kMaxPool, kAnyVariant, std::make_unique<MaxPoolBackend>());
  r.add(PlanKind::kGlobalAvgPool, kAnyVariant, std::make_unique<GlobalAvgPoolBackend>());
  r.add(PlanKind::kAdd, kAnyVariant, std::make_unique<AddBackend>());
}

}  // namespace detail
}  // namespace bswp::runtime
