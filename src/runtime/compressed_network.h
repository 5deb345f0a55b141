// Deployable (compiled) representation of a network: an ordered list of
// integer-kernel layer plans plus the shared dot-product LUT.
//
// This is the artifact that "ships to the microcontroller" in Figure 1:
// uncompressed layers carry int8 weights, pooled layers carry packed pool
// indices, and one global LUT serves every pooled layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/baseline_conv.h"
#include "kernels/bitserial_conv.h"
#include "kernels/common.h"
#include "pool/lut.h"

namespace bswp::runtime {

enum class PlanKind {
  kInput,
  kConvBaseline,
  kConvBitSerial,
  kLinearBaseline,
  kLinearBitSerial,
  kMaxPool,
  kGlobalAvgPool,
  kAdd,
  kFlatten,
  kRelu,
  /// XNOR-popcount binarized conv (§5.5 baseline). `qweights` holds the
  /// per-weight signs (+-1); per-filter alpha scales live in `rq.scale`.
  kConvBinary,
};

/// Number of PlanKind values (serialization bound / registry iteration).
/// Adding a PlanKind: extend plan_kind_name() below (the consteval guard
/// fails the build otherwise), bump the count static_assert next to the
/// payload serializers in runtime/serialize.cpp, and register a backend.
constexpr int kNumPlanKinds = static_cast<int>(PlanKind::kConvBinary) + 1;

constexpr const char* plan_kind_name(PlanKind k) {
  switch (k) {
    case PlanKind::kInput: return "input";
    case PlanKind::kConvBaseline: return "conv-int8";
    case PlanKind::kConvBitSerial: return "conv-bitserial";
    case PlanKind::kLinearBaseline: return "fc-int8";
    case PlanKind::kLinearBitSerial: return "fc-bitserial";
    case PlanKind::kMaxPool: return "maxpool";
    case PlanKind::kGlobalAvgPool: return "gap";
    case PlanKind::kAdd: return "add";
    case PlanKind::kFlatten: return "flatten";
    case PlanKind::kRelu: return "relu";
    case PlanKind::kConvBinary: return "conv-xnor";
  }
  return nullptr;  // unreachable for in-range kinds; the guard below checks
}

namespace detail {
consteval bool all_plan_kinds_named() {
  for (int i = 0; i < kNumPlanKinds; ++i) {
    if (plan_kind_name(static_cast<PlanKind>(i)) == nullptr) return false;
  }
  return true;
}
}  // namespace detail

static_assert(detail::all_plan_kinds_named(),
              "every PlanKind in [0, kNumPlanKinds) needs a plan_kind_name() case — a new "
              "kind cannot silently skip naming, serialization, or backend registration");

/// Host execution lane of a plan: the scalar reference kernels, or the
/// vectorized + cache-blocked kernels under src/kernels/simd/. Lanes are
/// bit-identical by contract (integer accumulation reordered, scalar
/// requantization per element) and differ only in wall-clock cost;
/// SelectBackends picks one per layer by a measured rule
/// (HostLaneSelect::kAuto). A plan carrying kSimd resolves to the scalar
/// backend when the SIMD family is compiled out or unsupported at runtime
/// (see backend_variant_key / KernelRegistry::find fallback).
enum class HostLane : uint8_t {
  kScalar = 0,
  kSimd = 1,
};

constexpr const char* host_lane_name(HostLane l) {
  return l == HostLane::kSimd ? "simd" : "scalar";
}

struct LayerPlan {
  PlanKind kind = PlanKind::kInput;
  std::string name;
  std::vector<int> inputs;  // producing plan indices

  nn::ConvSpec spec;               // conv plans
  kernels::Requant rq;             // conv / linear / gap / add requantization
  QTensor qweights;                // baseline conv & linear weights (int8)
  kernels::PackedIndices indices;  // bit-serial plans
  kernels::BitSerialVariant variant = kernels::BitSerialVariant::kCached;
  /// Host execution lane (scalar vs SIMD kernels). Chosen by SelectBackends
  /// for conv/linear kinds; structural plans always run scalar.
  HostLane lane = HostLane::kScalar;
  int pool_k = 2, pool_stride = 2;

  // Output quantization of this plan's activation. For requantizing plans it
  // mirrors rq.out; structural plans (maxpool/flatten/relu) inherit it from
  // their producer.
  kernels::OutputQuant out;
  std::vector<int> out_chw;

  std::size_t out_elems() const {
    std::size_t n = 1;
    for (int d : out_chw) n *= static_cast<std::size_t>(d);
    return n;
  }
};

struct CompiledNetwork {
  std::vector<LayerPlan> plans;
  pool::DotLut lut;
  bool has_lut = false;
  int act_bits = 8;
  float input_scale = 1.0f;

  int count_kind(PlanKind k) const {
    int n = 0;
    for (const auto& p : plans)
      if (p.kind == k) ++n;
    return n;
  }
};

}  // namespace bswp::runtime
