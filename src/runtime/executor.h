// Reusable inference executor over a planned memory arena.
//
// An Executor resolves every plan's kernel backend once, lays out one arena
// from the MemoryPlanner's host plan (liveness-shared activation slots + the
// backends' scratch high-water), and then serves run() calls that perform
// zero heap allocations: activations are written into fixed arena slots
// through QViews and temporaries come from a bump-reset ScratchArena.
//
// Batched execution: an Executor built with max_batch > 1 plans every
// activation slot with a batch dimension (image i of plan p lives at
// views[p].data + i * p.out_elems()) and run_batch_view() walks the plan
// list ONCE for the whole batch, handing each backend's one entry point,
// KernelBackend::execute, an ExecContext with batch = N (run_view is the
// same walk with batch = 1). Whether a backend runs a batched core or loops
// its per-image kernel is its own business; either way the results are
// byte-identical to N sequential run_view() calls.
//
// This replaces the PR-1-era free functions runtime::run / run_logits /
// resolve_backends (which allocated every activation on every call). One-off
// callers go through bswp::Session; sustained traffic holds an Executor (one
// per thread, as Session::run_batch and the InferenceServer workers do) and
// reuses it across inferences.
//
// run_view, run_batch_view and profile_layers share one layer loop; they
// differ only in the image count, where the tallies go and the cancel token.
//
// Cancellation: run_view/run_batch_view take an optional CancelToken and
// check it at every layer boundary (the top of each plan iteration, so a
// token armed with an already-unreachable deadline aborts before layer 0
// runs). A tripped token throws ExecutionCancelled and the run is abandoned
// cleanly — every backend rewrites its arena slot from scratch and the
// scratch arena bump-resets per layer, so the next run on the same executor
// is bit-identical to a run on a fresh one, and no partial output can
// escape (materialization happens only after the full plan walk). The
// un-cancelled path stays zero-allocation.
//
// Thread safety: an Executor is a mutable execution context — one thread at
// a time. For parallel serving, build one Executor per worker (they share
// the immutable CompiledNetwork and the stateless backends).
#pragma once

#include <memory>
#include <span>

#include "runtime/cancel.h"
#include "runtime/kernel_backend.h"
#include "runtime/memory_planner.h"

namespace bswp::runtime {

class Executor {
 public:
  /// Resolve backends, plan the arena (with room for up to `max_batch`
  /// images per activation slot) and allocate it. `net` is borrowed and must
  /// outlive the executor. Throws if any plan has no registered backend.
  explicit Executor(const CompiledNetwork& net, int max_batch = 1);

  Executor(Executor&&) = default;
  Executor& operator=(Executor&&) = default;

  /// Run one image (CHW or 1xCxHxW float tensor) and return a view of the
  /// quantized logits inside the arena. Zero heap allocations. The view is
  /// valid until the next run_view()/run() call or destruction. A non-null
  /// `cancel` is checked at every layer boundary; a tripped token throws
  /// ExecutionCancelled and abandons the run (see the header comment).
  const kernels::QView& run_view(const Tensor& image, sim::CostCounter* counter = nullptr,
                                 const CancelToken* cancel = nullptr);

  /// Run `images.size()` images (<= max_batch) through the network in one
  /// plan walk and return the view of image 0's logits; image i's logits are
  /// at logits_view(i). Zero heap allocations; bit-identical to running each
  /// image through run_view() in order. Views are valid until the next
  /// run/run_batch call or destruction. `cancel` as in run_view — the whole
  /// batch is abandoned together (layer boundaries are batch-wide).
  const kernels::QView& run_batch_view(std::span<const Tensor> images,
                                       sim::CostCounter* counter = nullptr,
                                       const CancelToken* cancel = nullptr);

  /// Logits view of image i from the last completed run (run_view counts as
  /// a run of one image). Throws when i is outside that run, so logits left
  /// over from an earlier, larger batch are never returned. The view's
  /// metadata is shared; data points at image i's slice.
  kernels::QView logits_view(int i) const;

  /// run_view() + materialize the logits as an owning QTensor.
  QTensor run(const Tensor& image, sim::CostCounter* counter = nullptr,
              const CancelToken* cancel = nullptr);

  /// One plan walk of `image` tallying each layer's kernel events into its
  /// own CostCounter (index = plan index). This is the estimate source for
  /// the server's execution-aware deadlines: price each counter with a sim::McuProfile
  /// (sim::host_profile() for this host) and suffix-sum to get the
  /// remaining-execution schedule a CancelToken can be armed with. Allocates
  /// (the result vector) — a registration-time call, not a serving-path one.
  std::vector<sim::CostCounter> profile_layers(const Tensor& image);

  /// run_batch_view() + materialize every image's logits (allocates).
  std::vector<QTensor> run_batch(std::span<const Tensor> images,
                                 sim::CostCounter* counter = nullptr);

  const CompiledNetwork& network() const { return *net_; }
  const MemoryPlan& memory_plan() const { return plan_; }
  /// Largest batch a single run_batch_view() call accepts.
  int max_batch() const { return max_batch_; }
  /// Bytes of the one backing allocation (activation region + scratch).
  std::size_t arena_bytes() const { return plan_.peak_bytes(); }
  /// Deepest scratch use observed so far (<= plan_.scratch_bytes).
  std::size_t scratch_high_water() const { return scratch_.high_water(); }

 private:
  /// The one layer loop: every plan for `n` contiguous images, tallying into
  /// `counter`, or into per_layer[p] when `per_layer` is non-null, and
  /// checking `cancel` at every layer boundary.
  const kernels::QView& walk(const Tensor* images, int n, sim::CostCounter* counter,
                             sim::CostCounter* per_layer, const CancelToken* cancel);

  const CompiledNetwork* net_;
  int max_batch_ = 1;
  int last_batch_ = 0;  // images in the last completed run (0 = none)
  std::vector<const KernelBackend*> backends_;
  MemoryPlan plan_;
  std::unique_ptr<std::byte[]> arena_;
  ScratchArena scratch_;                       // borrows the arena's tail
  std::vector<kernels::QView> views_;          // per plan, data pointer fixed
  std::vector<const kernels::QView*> inputs_;  // flattened per-plan input views
  std::vector<std::size_t> input_start_;       // per-plan offset into inputs_
};

}  // namespace bswp::runtime
