// SelectBackends: assign every live node its PlanKind and, for pooled
// layers, the bit-serial variant that will execute it.
//
// The variant choice is a measured-cost decision: sim/layer_cost.h predicts
// the exact event counts of all five bit-serial variants (the counts are
// closed-form in geometry and pool indices — see tests/test_layer_cost.cpp),
// CompileOptions::cost_profile prices them in cycles, and the cheapest
// variant wins. Because per-layer cycles are additive, per-layer argmin is
// optimal for whole-network simulated latency — it can only match or beat
// the §4.3 filters-vs-pool-size heuristic, whose pick is priced alongside as
// the report's heuristic_cycles reference. The baseline int8 kernel is
// priced for the report too, but never chosen for a pooled layer (it
// computes different numerics than the LUT path).
//
// Orthogonally, every conv/linear layer gets a HostLane: the scalar
// reference kernels or the SIMD family under src/kernels/simd/. Both lanes
// are bit-identical, so the decision is pure wall-clock, and it is one
// measured rule rather than a cost model: SIMD, except a grouped conv and a
// bit-serial layer over a weight-oriented LUT, the two layer classes a
// zoo-wide per-layer replay timed faster on the scalar lane (docs/kernels.md
// §4 has the table). kSimd is never assigned when the SIMD backends are
// compiled out.
#include <limits>

#include "kernels/simd/simd_dispatch.h"
#include "runtime/lowering/plan_graph.h"
#include "sim/layer_cost.h"

namespace bswp::runtime::lowering {
namespace {

using kernels::BitSerialVariant;

constexpr BitSerialVariant kAllVariants[] = {
    BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
    BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize};

class SelectBackends : public Pass {
 public:
  const char* name() const override { return "SelectBackends"; }

  int run(PlanGraph& pg, PassContext& ctx, std::string* detail) override {
    int decided = 0, cost_picked = 0, simd_lanes = 0;
    for (int id : pg.live_nodes()) {
      PlanNode& n = pg.node(id);
      switch (n.op) {
        case nn::Op::kInput: n.kind = PlanKind::kInput; break;
        case nn::Op::kMaxPool: n.kind = PlanKind::kMaxPool; break;
        case nn::Op::kGlobalAvgPool: n.kind = PlanKind::kGlobalAvgPool; break;
        case nn::Op::kAdd: n.kind = PlanKind::kAdd; break;
        case nn::Op::kFlatten: n.kind = PlanKind::kFlatten; break;
        case nn::Op::kReLU: n.kind = PlanKind::kRelu; break;
        case nn::Op::kConv2d:
        case nn::Op::kLinear: {
          const pool::PooledLayer* pl = ctx.pooled_layer(n.graph_node);
          if (pl == nullptr) {
            n.kind = n.op == nn::Op::kConv2d ? PlanKind::kConvBaseline
                                             : PlanKind::kLinearBaseline;
          } else {
            n.kind = n.op == nn::Op::kConv2d ? PlanKind::kConvBitSerial
                                             : PlanKind::kLinearBitSerial;
            n.indices = kernels::PackedIndices::pack(*pl);
            if (choose_variant(pg, ctx, n)) ++cost_picked;
          }
          choose_lane(ctx, n);
          if (n.lane == HostLane::kSimd) ++simd_lanes;
          break;
        }
        default:
          continue;  // unsupported ops were rejected by AssignActivationQuant
      }
      n.kind_assigned = true;
      ++decided;
    }
    if (detail != nullptr && (cost_picked > 0 || simd_lanes > 0)) {
      std::string d;
      if (cost_picked > 0) {
        d = std::to_string(cost_picked) + " pooled layer(s) priced by " +
            ctx.opt.cost_profile.name;
      }
      if (simd_lanes > 0) {
        if (!d.empty()) d += "; ";
        d += std::to_string(simd_lanes) + " layer(s) on the simd host lane";
      }
      *detail = std::move(d);
    }
    return decided;
  }

 private:
  /// The pre-cost-model layer policy (§4.2-4.3), kept only as the report's
  /// reference point: precompute when filters exceed the pool size; cache
  /// when the filter loop amortizes the block copies; flash reads for very
  /// narrow layers. Linear layers were always cached.
  static BitSerialVariant heuristic_variant(const PassContext& ctx, const PlanNode& n,
                                            int pool_size) {
    if (n.op == nn::Op::kLinear) return BitSerialVariant::kCached;
    const int out_ch = ctx.graph.node(n.graph_node).conv.out_ch;
    if (kernels::should_precompute(out_ch, pool_size)) {
      return BitSerialVariant::kCachedPrecompute;
    }
    if (out_ch * 4 >= pool_size) return BitSerialVariant::kCached;
    return BitSerialVariant::kInputReuse;
  }

  /// Pick n.variant. Returns true when the cost model made the decision.
  bool choose_variant(const PlanGraph& pg, PassContext& ctx, PlanNode& n) const {
    if (ctx.opt.force_variant) {
      n.variant = ctx.opt.forced_variant;
      return false;
    }
    check(ctx.lut != nullptr, "SelectBackends: pooled layer without a LUT");

    // Price every variant (and the baseline kernel, for the report) under
    // the compile profile.
    const PlanNode& src = pg.node(n.inputs[0]);
    check(src.quant_assigned, "SelectBackends: producer of '" + n.name + "' lacks quantization");
    const int M = src.oq.bits;  // bit-serial loop depth = input bitwidth
    const sim::McuProfile& mcu = ctx.opt.cost_profile;

    BackendChoice choice;
    choice.layer = n.name;
    choice.kind = n.kind;
    double best = std::numeric_limits<double>::infinity();
    for (BitSerialVariant v : kAllVariants) {
      const double cycles = mcu.cycles(variant_cost(ctx, n, src, M, v));
      choice.candidates.push_back(
          {std::string("bitserial/") + kernels::variant_name(v), cycles, true});
      if (cycles < best) {
        best = cycles;
        n.variant = v;
      }
    }
    choice.chosen = std::string("bitserial/") + kernels::variant_name(n.variant);
    choice.chosen_cycles = best;
    choice.heuristic_cycles =
        mcu.cycles(variant_cost(ctx, n, src, M, heuristic_variant(ctx, n, ctx.lut->pool_size)));
    choice.candidates.push_back({"baseline int8", mcu.cycles(baseline_cost(ctx, n, src)), false});
    if (ctx.report != nullptr) ctx.report->backend_choices.push_back(std::move(choice));
    return true;
  }

  /// Assign n.lane for a conv/linear node (any of the four compute kinds).
  /// kSimd is only ever assigned when kernels::simd::available() — a network
  /// compiled on a SIMD build still loads on a scalar-only one because
  /// KernelRegistry::find falls back, but the compile-time decision must not
  /// promise what this build lacks.
  static void choose_lane(const PassContext& ctx, PlanNode& n) {
    n.lane = HostLane::kScalar;
    if (!kernels::simd::available() || ctx.opt.host_lanes == HostLaneSelect::kScalar) return;
    if (ctx.opt.host_lanes == HostLaneSelect::kAuto) {
      // Why SIMD loses on these two: the SIMD int8 conv stages and dots one
      // column per group, which a 3x3 depthwise conv leaves 9 taps long,
      // under one 16-lane step; the SIMD bit-serial core precomputes a
      // weight-oriented LUT's strided rows one entry at a time.
      const bool grouped =
          n.op == nn::Op::kConv2d && ctx.graph.node(n.graph_node).conv.groups > 1;
      const bool bitserial =
          n.kind == PlanKind::kConvBitSerial || n.kind == PlanKind::kLinearBitSerial;
      if (grouped || (bitserial && ctx.lut->order == pool::LutOrder::kWeightOriented)) return;
    }
    n.lane = HostLane::kSimd;
  }

  static sim::CostCounter variant_cost(const PassContext& ctx, const PlanNode& n,
                                       const PlanNode& src, int act_bits, BitSerialVariant v) {
    if (n.op == nn::Op::kLinear) {
      const int fin = static_cast<int>(elems(src.out_chw));
      return sim::bitserial_linear_cost(fin, act_bits, *ctx.lut, n.indices, v);
    }
    const nn::ConvSpec& spec = ctx.graph.node(n.graph_node).conv;
    return sim::bitserial_conv_cost(spec, src.out_chw[1], src.out_chw[2], act_bits, *ctx.lut,
                                    n.indices, v);
  }

  static sim::CostCounter baseline_cost(const PassContext& ctx, const PlanNode& n,
                                        const PlanNode& src) {
    if (n.op == nn::Op::kLinear) {
      const int fin = static_cast<int>(elems(src.out_chw));
      return sim::baseline_linear_cost(fin, n.indices.out_ch);
    }
    const nn::ConvSpec& spec = ctx.graph.node(n.graph_node).conv;
    return sim::baseline_conv_cost(spec, src.out_chw[1], src.out_chw[2]);
  }

  static std::size_t elems(const std::vector<int>& chw) {
    std::size_t n = 1;
    for (int d : chw) n *= static_cast<std::size_t>(d);
    return n;
  }
};

}  // namespace

std::unique_ptr<Pass> make_select_backends() { return std::make_unique<SelectBackends>(); }

}  // namespace bswp::runtime::lowering
