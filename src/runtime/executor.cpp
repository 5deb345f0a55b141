#include "runtime/executor.h"

namespace bswp::runtime {

Executor::Executor(const CompiledNetwork& net, int max_batch)
    : net_(&net), max_batch_(max_batch) {
  check(!net.plans.empty(), "Executor: empty network");
  check(max_batch >= 1, "Executor: max_batch must be >= 1");
  const KernelRegistry& registry = KernelRegistry::instance();
  backends_.reserve(net.plans.size());
  for (const LayerPlan& plan : net.plans) {
    backends_.push_back(&registry.resolve(plan.kind, backend_variant_key(plan)));
  }
  plan_ = MemoryPlanner::plan_host(net, backends_, max_batch);

  // One backing block: [activation region | scratch region].
  arena_ = std::make_unique<std::byte[]>(plan_.peak_bytes());
  scratch_ = ScratchArena(arena_.get() + plan_.act_bytes, plan_.scratch_bytes);

  views_.resize(net.plans.size());
  input_start_.reserve(net.plans.size());
  std::size_t total_inputs = 0;
  for (const LayerPlan& plan : net.plans) total_inputs += plan.inputs.size();
  inputs_.reserve(total_inputs);
  for (std::size_t p = 0; p < net.plans.size(); ++p) {
    views_[p].data = reinterpret_cast<int16_t*>(arena_.get() + plan_.buffers[p].offset);
    input_start_.push_back(inputs_.size());
    for (int in : net.plans[p].inputs) inputs_.push_back(&views_[static_cast<std::size_t>(in)]);
  }
}

const kernels::QView& Executor::walk(const Tensor* images, int n, sim::CostCounter* counter,
                                     sim::CostCounter* per_layer, const CancelToken* cancel) {
  const CompiledNetwork& net = *net_;
  last_batch_ = 0;  // a cancelled or failed walk leaves no logits to view
  for (std::size_t p = 0; p < net.plans.size(); ++p) {
    if (cancel != nullptr && cancel->should_cancel(p)) {
      throw ExecutionCancelled("Executor: run cancelled at layer boundary " +
                               std::to_string(p) + " ('" + net.plans[p].name + "')");
    }
    scratch_.reset();
    ExecContext ctx{net,
                    net.plans[p],
                    images,
                    inputs_.data() + input_start_[p],
                    static_cast<int>(net.plans[p].inputs.size()),
                    &views_[p],
                    &scratch_,
                    per_layer != nullptr ? &per_layer[p] : counter,
                    n};
    backends_[p]->execute(ctx);
    check(views_[p].len <= net.plans[p].out_elems(),
          "Executor: backend overflowed its planned output slot");
  }
  last_batch_ = n;
  return views_.back();
}

const kernels::QView& Executor::run_view(const Tensor& image, sim::CostCounter* counter,
                                         const CancelToken* cancel) {
  return walk(&image, 1, counter, nullptr, cancel);
}

const kernels::QView& Executor::run_batch_view(std::span<const Tensor> images,
                                               sim::CostCounter* counter,
                                               const CancelToken* cancel) {
  const int n = static_cast<int>(images.size());
  check(n >= 1, "Executor: run_batch_view needs at least one image");
  check(n <= max_batch_, "Executor: batch exceeds the executor's max_batch");
  return walk(images.data(), n, counter, nullptr, cancel);
}

kernels::QView Executor::logits_view(int i) const {
  check(i >= 0 && i < last_batch_, "Executor: logits_view index outside the last run");
  kernels::QView v = views_.back();
  v.data += static_cast<std::size_t>(i) * net_->plans.back().out_elems();
  return v;
}

QTensor Executor::run(const Tensor& image, sim::CostCounter* counter,
                      const CancelToken* cancel) {
  return run_view(image, counter, cancel).to_qtensor();
}

std::vector<sim::CostCounter> Executor::profile_layers(const Tensor& image) {
  std::vector<sim::CostCounter> per_layer(net_->plans.size());
  walk(&image, 1, nullptr, per_layer.data(), nullptr);
  return per_layer;
}

std::vector<QTensor> Executor::run_batch(std::span<const Tensor> images,
                                         sim::CostCounter* counter) {
  run_batch_view(images, counter);
  std::vector<QTensor> out;
  out.reserve(images.size());
  for (int i = 0; i < static_cast<int>(images.size()); ++i) {
    out.push_back(logits_view(i).to_qtensor());
  }
  return out;
}

}  // namespace bswp::runtime
