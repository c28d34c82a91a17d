#include "fpu/fpu.hpp"

#include <cmath>
#include <limits>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace copift::fpu {

namespace {

using isa::Mnemonic;

double as_d(std::uint64_t raw) { return copift::bit_cast<double>(raw); }
std::uint64_t raw_d(double v) { return copift::bit_cast<std::uint64_t>(v); }
float as_s(std::uint64_t raw) {
  return copift::bit_cast<float>(static_cast<std::uint32_t>(raw));
}
std::uint64_t raw_s(float v) {
  return 0xFFFFFFFF00000000ULL | copift::bit_cast<std::uint32_t>(v);
}

/// fcvt.w.d with RNE rounding and RISC-V saturation semantics.
std::int32_t cvt_w_d(double v) {
  if (std::isnan(v)) return std::numeric_limits<std::int32_t>::max();
  const double r = std::nearbyint(v);
  if (r >= 2147483648.0) return std::numeric_limits<std::int32_t>::max();
  if (r < -2147483648.0) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(r);
}

std::uint32_t cvt_wu_d(double v) {
  if (std::isnan(v)) return std::numeric_limits<std::uint32_t>::max();
  const double r = std::nearbyint(v);
  if (r >= 4294967296.0) return std::numeric_limits<std::uint32_t>::max();
  if (r < 0.0) return 0;
  return static_cast<std::uint32_t>(r);
}

std::uint64_t sgnj_d(std::uint64_t a, std::uint64_t b, int mode) {
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  const std::uint64_t sign = mode == 0 ? (b & kSign) : mode == 1 ? (~b & kSign) : ((a ^ b) & kSign);
  return (a & ~kSign) | sign;
}

std::uint64_t sgnj_s(std::uint64_t a, std::uint64_t b, int mode) {
  constexpr std::uint32_t kSign = 0x80000000U;
  const auto au = static_cast<std::uint32_t>(a);
  const auto bu = static_cast<std::uint32_t>(b);
  const std::uint32_t sign = mode == 0 ? (bu & kSign) : mode == 1 ? (~bu & kSign) : ((au ^ bu) & kSign);
  return 0xFFFFFFFF00000000ULL | ((au & ~kSign) | sign);
}

FpuResult fp_result(std::uint64_t raw) {
  FpuResult r;
  r.fp = raw;
  r.writes_fp = true;
  return r;
}

FpuResult int_result(std::uint32_t v) {
  FpuResult r;
  r.intval = v;
  r.writes_int = true;
  return r;
}

}  // namespace

std::uint32_t fclass_d(double v) {
  if (std::isnan(v)) {
    const auto raw = copift::bit_cast<std::uint64_t>(v);
    const bool quiet = (raw & 0x0008000000000000ULL) != 0;
    return quiet ? (1U << 9) : (1U << 8);
  }
  const bool neg = std::signbit(v);
  if (std::isinf(v)) return neg ? (1U << 0) : (1U << 7);
  if (v == 0.0) return neg ? (1U << 3) : (1U << 4);
  if (std::fpclassify(v) == FP_SUBNORMAL) return neg ? (1U << 2) : (1U << 5);
  return neg ? (1U << 1) : (1U << 6);
}

FpuResult execute(const isa::Instr& instr, std::uint64_t rs1, std::uint64_t rs2,
                  std::uint64_t rs3, std::uint32_t int_rs1) {
  const double a = as_d(rs1), b = as_d(rs2), c = as_d(rs3);
  const float fa = as_s(rs1), fb = as_s(rs2), fc = as_s(rs3);
  switch (instr.mnemonic) {
    // ---- double precision ----
    case Mnemonic::kFaddD: return fp_result(raw_d(a + b));
    case Mnemonic::kFsubD: return fp_result(raw_d(a - b));
    case Mnemonic::kFmulD: return fp_result(raw_d(a * b));
    case Mnemonic::kFdivD: return fp_result(raw_d(a / b));
    case Mnemonic::kFsqrtD: return fp_result(raw_d(std::sqrt(a)));
    case Mnemonic::kFmaddD: return fp_result(raw_d(std::fma(a, b, c)));
    case Mnemonic::kFmsubD: return fp_result(raw_d(std::fma(a, b, -c)));
    case Mnemonic::kFnmsubD: return fp_result(raw_d(std::fma(-a, b, c)));
    case Mnemonic::kFnmaddD: return fp_result(raw_d(-std::fma(a, b, c)));
    case Mnemonic::kFsgnjD: return fp_result(sgnj_d(rs1, rs2, 0));
    case Mnemonic::kFsgnjnD: return fp_result(sgnj_d(rs1, rs2, 1));
    case Mnemonic::kFsgnjxD: return fp_result(sgnj_d(rs1, rs2, 2));
    case Mnemonic::kFminD: return fp_result(raw_d(std::fmin(a, b)));
    case Mnemonic::kFmaxD: return fp_result(raw_d(std::fmax(a, b)));
    case Mnemonic::kFeqD: return int_result(a == b ? 1 : 0);
    case Mnemonic::kFltD: return int_result(a < b ? 1 : 0);
    case Mnemonic::kFleD: return int_result(a <= b ? 1 : 0);
    case Mnemonic::kFclassD: return int_result(fclass_d(a));
    case Mnemonic::kFcvtWD: return int_result(static_cast<std::uint32_t>(cvt_w_d(a)));
    case Mnemonic::kFcvtWuD: return int_result(cvt_wu_d(a));
    case Mnemonic::kFcvtDW:
      return fp_result(raw_d(static_cast<double>(static_cast<std::int32_t>(int_rs1))));
    case Mnemonic::kFcvtDWu: return fp_result(raw_d(static_cast<double>(int_rs1)));
    case Mnemonic::kFcvtSD: return fp_result(raw_s(static_cast<float>(a)));
    case Mnemonic::kFcvtDS: return fp_result(raw_d(static_cast<double>(fa)));
    // ---- single precision ----
    case Mnemonic::kFaddS: return fp_result(raw_s(fa + fb));
    case Mnemonic::kFsubS: return fp_result(raw_s(fa - fb));
    case Mnemonic::kFmulS: return fp_result(raw_s(fa * fb));
    case Mnemonic::kFdivS: return fp_result(raw_s(fa / fb));
    case Mnemonic::kFsqrtS: return fp_result(raw_s(std::sqrt(fa)));
    case Mnemonic::kFmaddS: return fp_result(raw_s(std::fmaf(fa, fb, fc)));
    case Mnemonic::kFmsubS: return fp_result(raw_s(std::fmaf(fa, fb, -fc)));
    case Mnemonic::kFnmsubS: return fp_result(raw_s(std::fmaf(-fa, fb, fc)));
    case Mnemonic::kFnmaddS: return fp_result(raw_s(-std::fmaf(fa, fb, fc)));
    case Mnemonic::kFsgnjS: return fp_result(sgnj_s(rs1, rs2, 0));
    case Mnemonic::kFsgnjnS: return fp_result(sgnj_s(rs1, rs2, 1));
    case Mnemonic::kFsgnjxS: return fp_result(sgnj_s(rs1, rs2, 2));
    case Mnemonic::kFminS: return fp_result(raw_s(std::fmin(fa, fb)));
    case Mnemonic::kFmaxS: return fp_result(raw_s(std::fmax(fa, fb)));
    case Mnemonic::kFeqS: return int_result(fa == fb ? 1 : 0);
    case Mnemonic::kFltS: return int_result(fa < fb ? 1 : 0);
    case Mnemonic::kFleS: return int_result(fa <= fb ? 1 : 0);
    case Mnemonic::kFclassS: return int_result(fclass_d(static_cast<double>(fa)));
    case Mnemonic::kFcvtWS: return int_result(static_cast<std::uint32_t>(cvt_w_d(fa)));
    case Mnemonic::kFcvtWuS: return int_result(cvt_wu_d(fa));
    case Mnemonic::kFcvtSW:
      return fp_result(raw_s(static_cast<float>(static_cast<std::int32_t>(int_rs1))));
    case Mnemonic::kFcvtSWu: return fp_result(raw_s(static_cast<float>(int_rs1)));
    case Mnemonic::kFmvXW: return int_result(static_cast<std::uint32_t>(rs1));
    case Mnemonic::kFmvWX: return fp_result(0xFFFFFFFF00000000ULL | int_rs1);
    // ---- Xcopift: all-FP-RF semantics (paper Section II-B) ----
    // Conversions read/write the integer *bit pattern* in the FP register's
    // low 32 bits; comparisons produce 0.0/1.0 doubles so hit counts can be
    // accumulated with fadd.d without touching the integer RF.
    case Mnemonic::kFcvtDWCop:
      return fp_result(raw_d(static_cast<double>(static_cast<std::int32_t>(rs1))));
    case Mnemonic::kFcvtDWuCop:
      return fp_result(raw_d(static_cast<double>(static_cast<std::uint32_t>(rs1))));
    case Mnemonic::kFcvtWDCop:
      return fp_result(static_cast<std::uint32_t>(cvt_w_d(a)));
    case Mnemonic::kFcvtWuDCop: return fp_result(cvt_wu_d(a));
    case Mnemonic::kFeqDCop: return fp_result(raw_d(a == b ? 1.0 : 0.0));
    case Mnemonic::kFltDCop: return fp_result(raw_d(a < b ? 1.0 : 0.0));
    case Mnemonic::kFleDCop: return fp_result(raw_d(a <= b ? 1.0 : 0.0));
    case Mnemonic::kFclassDCop: return fp_result(fclass_d(a));
    default:
      throw SimError("non-FPU instruction reached FPU: " + std::string(instr.meta().name));
  }
}

}  // namespace copift::fpu
