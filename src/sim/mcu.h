// Microcontroller profiles (paper Table 2) and the cycle/latency model.
//
// The paper measures on two STM Nucleo boards with ARM Cortex-M3 cores:
//   MC-large: STM32F207ZG — 128 kB SRAM, 1 MB flash, 120 MHz
//   MC-small: STM32F103RB —  20 kB SRAM, 128 kB flash, 72 MHz
// We replace the boards with a cost model: kernels tally typed events
// (sim::CostCounter) and the profile prices each event in core cycles.
//
// Calibration constants (documented here per DESIGN.md §6): Cortex-M3 loads
// take 2 cycles from SRAM; MUL/MLA are 1-2 cycles (priced 2 as a MAC);
// flash sits behind wait states (3-5 at these clocks) so an isolated byte
// load costs ~flash_random cycles, while sequential streams benefit from the
// prefetch buffer (~2 cycles/access). Requantization (float scale + clamp,
// or fixed-point multiply-shift on hardware) is priced as a small constant
// per output element. Absolute seconds depend on these constants; the
// experiment *shapes* (who wins, how speedups scale) come from the event
// counts, which are exact properties of the kernels' dataflow.
#pragma once

#include <cstdint>
#include <string>

#include "sim/cost_counter.h"

namespace bswp::sim {

struct McuProfile {
  std::string name;
  std::size_t sram_bytes = 0;
  std::size_t flash_bytes = 0;
  double freq_mhz = 0.0;

  /// Cycle price per event type.
  double event_cycles[kNumEvents] = {};

  double cycles(const CostCounter& c) const;
  double seconds(const CostCounter& c) const;
};

/// STM32F207ZG Nucleo ("MC-large" in Table 2).
McuProfile mc_large();
/// STM32F103RB Nucleo ("MC-small" in Table 2).
McuProfile mc_small();

/// Generic superscalar host CPU (serving-path profile, not a paper board).
/// Prices the same event vocabulary for a ~3 GHz out-of-order core with
/// caches: "flash" degenerates to cached memory streams and loads/stores are
/// sub-cycle. It prices the kernels' per-layer tallies
/// (Executor::profile_layers) for the server's deadline schedule and for
/// the benchmark's per-layer replay; it does not choose host lanes. Memory
/// bounds are effectively unlimited so MemoryFootprint::fits never rejects a
/// host.
McuProfile host_profile();

/// Static memory placement of a deployed network (flash image + peak SRAM).
struct MemoryFootprint {
  std::size_t flash_bytes = 0;  // weights/indices/LUT/bias constants
  std::size_t sram_bytes = 0;   // peak activations + kernel scratch

  bool fits(const McuProfile& m) const {
    return flash_bytes <= m.flash_bytes && sram_bytes <= m.sram_bytes;
  }
};

}  // namespace bswp::sim
