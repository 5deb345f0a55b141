#include "runtime/kernel_backend.h"

#include <algorithm>
#include <stdexcept>

namespace bswp::runtime {

void PerImageBackend::execute(const ExecContext& ctx) const {
  if (ctx.batch == 1) {
    execute_image(ctx);
    return;
  }
  // Per-image loop: shift every view by the per-image stride and run the
  // single-image kernel. Fixed-capacity input staging keeps this
  // allocation-free.
  constexpr int kMaxInputs = 4;
  check(ctx.num_inputs <= kMaxInputs, "PerImageBackend: too many plan inputs");
  kernels::QView in_views[kMaxInputs];
  const kernels::QView* in_ptrs[kMaxInputs];
  for (int k = 0; k < ctx.num_inputs; ++k) in_ptrs[k] = &in_views[k];
  kernels::QView out = *ctx.out;
  const std::size_t out_stride = ctx.plan.out_elems();
  for (int i = 0; i < ctx.batch; ++i) {
    for (int k = 0; k < ctx.num_inputs; ++k) {
      in_views[k] = *ctx.inputs[k];
      in_views[k].data += static_cast<std::size_t>(i) * ctx.input_stride(k);
    }
    out = *ctx.out;
    out.data = ctx.out->data + static_cast<std::size_t>(i) * out_stride;
    ExecContext sub{ctx.net,         ctx.plan,
                    ctx.image == nullptr ? nullptr : ctx.image + i,
                    in_ptrs,         ctx.num_inputs,
                    &out,            ctx.scratch,
                    ctx.counter};
    ctx.scratch->reset();
    execute_image(sub);
  }
  // Stamp the base view with image 0's pointer and the (identical across
  // images) metadata the last image filled in.
  out.data = ctx.out->data;
  *ctx.out = out;
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry reg;
  static std::once_flag once;
  std::call_once(once, [] {
    detail::register_structural_backends(reg);
    detail::register_baseline_backends(reg);
    detail::register_bitserial_backends(reg);
    detail::register_binary_backends(reg);
    detail::register_simd_backends(reg);
  });
  return reg;
}

std::unique_ptr<KernelBackend> KernelRegistry::add(PlanKind kind, int variant,
                                                   std::unique_ptr<KernelBackend> backend,
                                                   bool replace) {
  check(backend != nullptr, "KernelRegistry::add: null backend");
  const Key key{static_cast<int>(kind), variant};
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : backends_) {
    if (!(entry.first < key) && !(key < entry.first)) {
      if (!replace) {
        throw std::invalid_argument(std::string("KernelRegistry: backend already registered for ") +
                                    plan_kind_name(kind) + " (use replace to override)");
      }
      std::swap(entry.second, backend);
      return backend;  // the previous backend
    }
  }
  backends_.emplace_back(key, std::move(backend));
  return nullptr;
}

const KernelBackend* KernelRegistry::find(PlanKind kind, int variant) const {
  // A SIMD-lane key falls back onto its scalar-lane key before the wildcard,
  // so a kSimd plan still resolves (bit-identically) on a scalar-only build.
  // kSimdKeyOffset + 0 is the SIMD key of variant-less kinds, whose scalar
  // registration is the kAnyVariant wildcard itself.
  const bool simd_key = variant >= kSimdKeyOffset;
  const int scalar_key = simd_key && variant > kSimdKeyOffset ? variant - kSimdKeyOffset
                                                              : kAnyVariant;
  std::lock_guard<std::mutex> lock(mu_);
  const KernelBackend* scalar = nullptr;
  const KernelBackend* fallback = nullptr;
  for (const auto& entry : backends_) {
    if (entry.first.kind != static_cast<int>(kind)) continue;
    if (entry.first.variant == variant) return entry.second.get();
    if (simd_key && scalar_key != kAnyVariant && entry.first.variant == scalar_key)
      scalar = entry.second.get();
    if (entry.first.variant == kAnyVariant) fallback = entry.second.get();
  }
  return scalar != nullptr ? scalar : fallback;
}

const KernelBackend& KernelRegistry::resolve(PlanKind kind, int variant) const {
  const KernelBackend* b = find(kind, variant);
  if (b == nullptr) {
    std::string msg = std::string("KernelRegistry: no backend for plan kind '") +
                      plan_kind_name(kind) + "' variant " + std::to_string(variant) +
                      "; registered:";
    for (const std::string& line : registered()) msg += "\n  " + line;
    throw std::runtime_error(msg);
  }
  return *b;
}

std::vector<std::string> KernelRegistry::registered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& entry : backends_) {
    std::string line = plan_kind_name(static_cast<PlanKind>(entry.first.kind));
    line += "/";
    line += entry.first.variant == kAnyVariant ? "*" : std::to_string(entry.first.variant);
    line += " -> ";
    line += entry.second->name();
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> KernelRegistry::describe(const CompiledNetwork& net) const {
  std::vector<std::string> out;
  out.reserve(net.plans.size());
  for (const LayerPlan& plan : net.plans) {
    const int key = backend_variant_key(plan);
    const KernelBackend* b = find(plan.kind, key);
    std::string line = plan.name;
    line += ": ";
    line += plan_kind_name(plan.kind);
    line += "/";
    line += key == kAnyVariant ? "*" : std::to_string(key);
    line += " [";
    line += host_lane_name(plan.lane);
    line += "] -> ";
    line += b != nullptr ? b->name() : "<unresolved>";
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace bswp::runtime
