// Introspection artifacts of the lowering pipeline: the per-pass trace and
// the per-layer backend-selection report. Produced by runtime::compile()
// when the caller passes a CompileReport, surfaced through
// bswp::Deployment::compile_report().
#pragma once

#include <string>
#include <vector>

#include "runtime/compressed_network.h"

namespace bswp::runtime {

/// One pipeline pass as it ran over the PlanGraph. Only recorded when
/// CompileOptions::pass_trace is set.
struct PassTraceEntry {
  std::string pass;
  int live_before = 0;  // live PlanGraph nodes entering the pass
  int live_after = 0;
  int changes = 0;      // pass-defined mutation count (folds, fusions, ...)
  std::string detail;   // one-line human summary, may be empty
};

/// One candidate backend considered for a layer, priced by the cost model.
struct BackendCandidate {
  std::string backend;   // e.g. "bitserial/cached+precompute", "baseline int8"
  double cycles = 0.0;   // estimated cycles under CompileOptions::cost_profile
  /// False for candidates listed for comparison only (the baseline kernel on
  /// a pooled layer computes different numerics, so it is never chosen).
  bool selectable = true;
};

/// The SelectBackends decision for one layer that had a real choice.
struct BackendChoice {
  std::string layer;
  PlanKind kind = PlanKind::kConvBitSerial;
  std::vector<BackendCandidate> candidates;
  std::string chosen;
  double chosen_cycles = 0.0;
  /// Cycles of the variant the pre-cost-model heuristic (§4.3 filters-vs-pool
  /// rule) would have picked; >= chosen_cycles by construction.
  double heuristic_cycles = 0.0;
};

/// Everything the lowering pipeline can tell you about one compile() run.
struct CompileReport {
  std::vector<PassTraceEntry> pass_trace;
  std::vector<BackendChoice> backend_choices;

  /// Multi-line human-readable rendering of both sections.
  std::string summary() const;
};

}  // namespace bswp::runtime
