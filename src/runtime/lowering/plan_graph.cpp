#include "runtime/lowering/plan_graph.h"

#include <sstream>

namespace bswp::runtime::lowering {

int PlanGraph::live_count() const {
  int n = 0;
  for (const PlanNode& node : nodes_)
    if (!node.dead) ++n;
  return n;
}

std::vector<int> PlanGraph::live_nodes() const {
  std::vector<int> ids;
  ids.reserve(nodes_.size());
  for (int i = 0; i < num_nodes(); ++i)
    if (!nodes_[static_cast<std::size_t>(i)].dead) ids.push_back(i);
  return ids;
}

std::vector<std::vector<int>> PlanGraph::consumers() const {
  std::vector<std::vector<int>> c(nodes_.size());
  for (int i = 0; i < num_nodes(); ++i) {
    const PlanNode& n = nodes_[static_cast<std::size_t>(i)];
    if (n.dead) continue;
    for (int in : n.inputs) c[static_cast<std::size_t>(in)].push_back(i);
  }
  return c;
}

int PlanGraph::consumer_count(int id, int cap) const {
  int n = 0;
  for (const PlanNode& c : nodes_) {
    if (c.dead) continue;
    for (int in : c.inputs) {
      if (in == id && ++n >= cap) return n;
    }
  }
  return n;
}

void PlanGraph::splice(int id) {
  PlanNode& n = node(id);
  check(!n.dead, "PlanGraph::splice: node already dead");
  check(n.inputs.size() == 1, "PlanGraph::splice: only single-input nodes can be spliced");
  const int src = n.inputs[0];
  for (PlanNode& c : nodes_) {
    if (c.dead) continue;
    for (int& in : c.inputs)
      if (in == id) in = src;
  }
  if (output_ == id) output_ = src;
  n.dead = true;
}

const pool::PooledLayer* PassContext::pooled_layer(int graph_node) const {
  if (pooled == nullptr) return nullptr;
  for (const pool::PooledLayer& l : pooled->layers)
    if (l.node == graph_node) return &l;
  return nullptr;
}

PlanGraph build_plan_graph(const nn::Graph& g) {
  PlanGraph pg;
  for (int i = 0; i < g.num_nodes(); ++i) {
    const nn::Node& n = g.node(i);
    PlanNode p;
    p.op = n.op;
    p.name = n.name;
    p.graph_node = i;
    p.range_node = i;
    p.inputs = n.inputs;  // graph ids == plan-node ids at build time
    p.out_chw = n.out_chw;
    pg.add_node(std::move(p));
  }
  pg.set_output(g.output_node());
  return pg;
}

std::vector<std::unique_ptr<Pass>> default_pass_pipeline() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(make_fold_batchnorm());
  passes.push_back(make_fuse_activations());
  passes.push_back(make_eliminate_dead_nodes());
  passes.push_back(make_assign_activation_quant());
  passes.push_back(make_select_backends());
  passes.push_back(make_legalize());
  return passes;
}

void run_pass_pipeline(PlanGraph& pg, const std::vector<std::unique_ptr<Pass>>& passes,
                       PassContext& ctx) {
  for (const std::unique_ptr<Pass>& pass : passes) {
    const int before = pg.live_count();
    std::string detail;
    const int changes = pass->run(pg, ctx, &detail);
    if (ctx.report != nullptr && ctx.opt.pass_trace) {
      PassTraceEntry e;
      e.pass = pass->name();
      e.live_before = before;
      e.live_after = pg.live_count();
      e.changes = changes;
      e.detail = std::move(detail);
      ctx.report->pass_trace.push_back(std::move(e));
    }
  }
}

void freeze(PlanGraph& pg, CompiledNetwork& net) {
  const std::vector<int> order = pg.live_nodes();
  std::vector<int> plan_index(static_cast<std::size_t>(pg.num_nodes()), -1);
  for (int id : order) {
    PlanNode& n = pg.node(id);
    check(n.legalized, "freeze: live node '" + n.name + "' was never legalized");
    LayerPlan plan = std::move(n.plan);
    plan.lane = n.lane;
    plan.inputs.clear();
    plan.inputs.reserve(n.inputs.size());
    for (int in : n.inputs) {
      const int p = plan_index[static_cast<std::size_t>(in)];
      check(p >= 0, "freeze: node '" + n.name + "' consumes an unemitted producer");
      plan.inputs.push_back(p);
    }
    if (plan.kind == PlanKind::kInput) net.input_scale = plan.out.scale;
    plan_index[static_cast<std::size_t>(id)] = static_cast<int>(net.plans.size());
    net.plans.push_back(std::move(plan));
  }
}

}  // namespace bswp::runtime::lowering

namespace bswp::runtime {

std::string CompileReport::summary() const {
  std::ostringstream os;
  if (!pass_trace.empty()) {
    os << "pass trace:\n";
    for (const PassTraceEntry& e : pass_trace) {
      os << "  " << e.pass << ": " << e.live_before << " -> " << e.live_after
         << " live nodes, " << e.changes << " change(s)";
      if (!e.detail.empty()) os << " (" << e.detail << ")";
      os << "\n";
    }
  }
  if (!backend_choices.empty()) {
    os << "backend selection:\n";
    for (const BackendChoice& b : backend_choices) {
      os << "  " << b.layer << " [" << plan_kind_name(b.kind) << "] -> " << b.chosen;
      if (b.chosen_cycles > 0.0) {
        os << " (" << b.chosen_cycles << " cyc";
        if (b.heuristic_cycles > b.chosen_cycles) {
          os << ", heuristic " << b.heuristic_cycles << " cyc";
        }
        os << ")";
      }
      os << "\n";
      for (const BackendCandidate& c : b.candidates) {
        os << "      " << c.backend << ": " << c.cycles << " cyc"
           << (c.selectable ? "" : " [comparison only]") << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace bswp::runtime
