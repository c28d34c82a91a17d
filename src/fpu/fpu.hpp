// Functional + timing model of the Snitch FPU (FPnew).
//
// Functionally, operations are evaluated on host IEEE-754 arithmetic (RISC-V
// RNE rounding == host default). Timing is a per-class latency with full
// pipelining except div/sqrt, which occupy the unit for their whole latency.
#pragma once

#include <cstdint>

#include "isa/instr.hpp"

namespace copift::fpu {

/// Per-class result latencies in cycles (issue to writeback/forward).
/// Defaults approximate FPnew in the Snitch cluster at 1 GHz.
struct FpuLatencies {
  unsigned add = 3;
  unsigned mul = 3;
  unsigned fma = 3;
  unsigned div_sqrt = 11;
  unsigned cmp = 1;
  unsigned cvt = 2;
  unsigned move = 1;
  unsigned minmax = 1;
  unsigned fclass = 1;

  /// Inline: the FPSS looks this up on every issue attempt.
  [[nodiscard]] unsigned of(isa::FpuClass cls) const noexcept {
    switch (cls) {
      case isa::FpuClass::kAdd: return add;
      case isa::FpuClass::kMul: return mul;
      case isa::FpuClass::kFma: return fma;
      case isa::FpuClass::kDivSqrt: return div_sqrt;
      case isa::FpuClass::kCmp: return cmp;
      case isa::FpuClass::kCvt: return cvt;
      case isa::FpuClass::kMove: return move;
      case isa::FpuClass::kMinMax: return minmax;
      case isa::FpuClass::kClass: return fclass;
      case isa::FpuClass::kNone: return 1;
    }
    return 1;
  }
};

/// Result of executing one FP instruction.
struct FpuResult {
  std::uint64_t fp = 0;        // value for an FP destination (raw bits)
  std::uint32_t intval = 0;    // value for an integer destination
  bool writes_fp = false;
  bool writes_int = false;
};

/// Execute `instr` functionally. `rs1`/`rs2`/`rs3` are the raw 64-bit FP
/// operand bits; `int_rs1` is the integer-RF operand for instructions that
/// consume one (fcvt.d.w, fmv.w.x). Throws SimError for non-FPU mnemonics.
FpuResult execute(const isa::Instr& instr, std::uint64_t rs1, std::uint64_t rs2,
                  std::uint64_t rs3, std::uint32_t int_rs1);

/// RISC-V fclass result bitmask for a double.
std::uint32_t fclass_d(double value);

}  // namespace copift::fpu
