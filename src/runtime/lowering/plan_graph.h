// PlanGraph: the mutable intermediate representation of the compile
// pipeline.
//
// A PlanGraph is built 1:1 from the float nn::Graph (one PlanNode per graph
// node, explicit producer edges) and then rewritten by an ordered pass
// pipeline until every live node carries a fully legalized LayerPlan; only
// then is it frozen into the immutable CompiledNetwork artifact. Passes are
// small, single-purpose, and composable — adding an optimization means
// adding a pass, not threading logic through a monolith:
//
//   FoldBatchNorm        conv→BN: BN affine recorded on the conv for later
//                        folding into requantization; BN node spliced out
//   FuseActivations      FakeQuant identities spliced; ReLU fused into its
//                        producing conv / linear / add (single-consumer)
//   EliminateDeadNodes   nodes with no path to the network output dropped
//   AssignActivationQuant every live node gets its output quantization from
//                        the calibration result (chain-end ranges)
//   SelectBackends       PlanKind + bit-serial variant + host lane per
//                        node; pooled layers pick the cheapest variant under
//                        the cost model (sim/layer_cost.h) priced by the
//                        compile profile, and compute layers take their lane
//                        from the measured rule (HostLaneSelect::kAuto)
//   Legalize             requantization construction (BN fold, zero-point
//                        row-sum corrections), weight quantization, index
//                        packing, and the unsupported-pattern checks
//
// Node ids are stable across passes (nodes are marked dead, never erased),
// ids are in topological order, and consumer lists are derived on demand —
// the invariants every pass relies on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/graph.h"
#include "pool/lut.h"
#include "runtime/pipeline.h"

namespace bswp::runtime::lowering {

/// One tentative layer plan under construction.
struct PlanNode {
  nn::Op op = nn::Op::kInput;
  std::string name;
  int graph_node = -1;        // anchor node in the source nn::Graph
  std::vector<int> inputs;    // producing PlanGraph node ids
  std::vector<int> out_chw;   // output shape per sample
  bool dead = false;

  // --- fusion state (FoldBatchNorm / FuseActivations) ------------------------
  int bn_node = -1;           // graph node of the folded BatchNorm, or -1
  bool fused_relu = false;
  /// Graph node whose calibrated range defines this node's output (advances
  /// to the chain end as identities/activations are absorbed).
  int range_node = -1;

  // --- attached quantization (AssignActivationQuant) -------------------------
  kernels::OutputQuant oq;
  bool quant_assigned = false;

  // --- backend decision (SelectBackends) -------------------------------------
  PlanKind kind = PlanKind::kInput;
  kernels::BitSerialVariant variant = kernels::BitSerialVariant::kCached;
  HostLane lane = HostLane::kScalar;  // host kernel family (freeze -> plan.lane)
  bool kind_assigned = false;
  kernels::PackedIndices indices;  // packed for pooled nodes (reused by Legalize)

  // --- legalized artifact (Legalize; moved out by freeze) --------------------
  LayerPlan plan;
  bool legalized = false;
};

class PlanGraph {
 public:
  int add_node(PlanNode n) {
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  PlanNode& node(int i) { return nodes_.at(static_cast<std::size_t>(i)); }
  const PlanNode& node(int i) const { return nodes_.at(static_cast<std::size_t>(i)); }

  /// The node producing the network output (forwarded when spliced away).
  int output() const { return output_; }
  void set_output(int id) { output_ = id; }

  int live_count() const;
  /// Live node ids in topological (ascending-id) order.
  std::vector<int> live_nodes() const;
  /// Consumer lists over live nodes only (indexed by node id).
  std::vector<std::vector<int>> consumers() const;
  /// Number of live consumers of `id`, counting at most `cap` (allocation-free
  /// and always current — safe inside splice loops, where a consumers() map
  /// taken up front would go stale).
  int consumer_count(int id, int cap) const;

  /// Remove a single-input identity-like node from the graph: every consumer
  /// is rewired to its input, the output pointer is forwarded, and the node
  /// is marked dead.
  void splice(int id);

 private:
  std::vector<PlanNode> nodes_;
  int output_ = -1;
};

/// Everything the passes may consult. Borrowed members must outlive the run.
struct PassContext {
  const nn::Graph& graph;
  const pool::PooledNetwork* pooled;  // null for uncompressed builds
  const quant::CalibrationResult& cal;
  const CompileOptions& opt;
  const pool::DotLut* lut = nullptr;  // null without a pool
  const QTensor* qpool = nullptr;     // quantized pool (zero-point row sums)
  CompileReport* report = nullptr;    // null => nothing recorded

  /// Graph-node id -> pooled layer, for the layers the codec compressed.
  const pool::PooledLayer* pooled_layer(int graph_node) const;
};

/// One transformation over the PlanGraph. run() returns the number of
/// mutations it performed (for the pass trace) and may set `detail` to a
/// one-line summary.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual int run(PlanGraph& pg, PassContext& ctx, std::string* detail) = 0;
};

std::unique_ptr<Pass> make_fold_batchnorm();
std::unique_ptr<Pass> make_fuse_activations();
std::unique_ptr<Pass> make_eliminate_dead_nodes();
std::unique_ptr<Pass> make_assign_activation_quant();
std::unique_ptr<Pass> make_select_backends();
std::unique_ptr<Pass> make_legalize();

/// The default lowering pipeline, in order.
std::vector<std::unique_ptr<Pass>> default_pass_pipeline();

/// Build the initial 1:1 PlanGraph from the float graph.
PlanGraph build_plan_graph(const nn::Graph& g);

/// Run `passes` in order, recording trace entries when ctx.report is set and
/// ctx.opt.pass_trace is enabled.
void run_pass_pipeline(PlanGraph& pg, const std::vector<std::unique_ptr<Pass>>& passes,
                       PassContext& ctx);

/// Move every live node's legalized LayerPlan into `net` in topological
/// order, remapping plan inputs from node ids to plan indices.
void freeze(PlanGraph& pg, CompiledNetwork& net);

}  // namespace bswp::runtime::lowering
