// Decode-once instruction cache: the per-PC micro-op table the cycle loop
// indexes instead of re-deriving instruction metadata every cycle.
//
// The assembler already hands the simulator predecoded `isa::Instr`s, but the
// issue path still paid per cycle for `Program::text_index` (bounds checks +
// division), the `info(mnemonic)` metadata lookup, and the register-class
// comparisons of the scoreboard busy check — and it paid them again on every
// stall cycle of the same instruction. A DecodedProgram flattens all of that
// into one MicroOp per instruction, built exactly once per program:
// scoreboard operand indices are pre-resolved (0 for non-integer operands, so
// the busy check is three array loads), the execution unit and offload flags
// are copied out of the InstrInfo table, and the micro-op carries a pointer
// to its backing Instr for the tracer and the FP offload path.
//
// DecodedProgram::get() extends the assemble-once ProgramCache idea down into
// the simulator: decoded tables are shared by every cluster running the same
// program (a parameter sweep decodes each kernel once), keyed on program
// identity and dropped when the last user releases them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instr.hpp"
#include "rvasm/program.hpp"

namespace copift::sim {

/// One pre-decoded instruction, resolved for the issue hot path.
struct MicroOp {
  const isa::Instr* instr = nullptr;  // backing instruction (tracer, FPU, offload)
  std::int32_t imm = 0;
  isa::Mnemonic mnemonic = isa::Mnemonic::kEcall;
  isa::ExecUnit unit = isa::ExecUnit::kSys;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  // Scoreboard indices: the operand's register number when it lives in the
  // integer RF, else 0. x0 is never marked busy, so `ready_[sb_*] > now`
  // reproduces the class-checked busy test with three unconditional loads.
  std::uint8_t sb_rd = 0;
  std::uint8_t sb_rs1 = 0;
  std::uint8_t sb_rs2 = 0;
  std::uint8_t flags = 0;

  static constexpr std::uint8_t kWritesIntRf = 1U << 0;  // offloaded, writes int RF
  static constexpr std::uint8_t kRs1Int = 1U << 1;       // rs1 read from the int RF

  [[nodiscard]] bool writes_int_rf() const noexcept { return (flags & kWritesIntRf) != 0; }
  [[nodiscard]] bool rs1_is_int() const noexcept { return (flags & kRs1Int) != 0; }
};

/// Immutable per-program micro-op table. Holds a strong reference to the
/// backing program (MicroOps point into its text).
class DecodedProgram {
 public:
  explicit DecodedProgram(std::shared_ptr<const rvasm::Program> program);

  /// Shared decode-once lookup: returns the cached table for `program`,
  /// building it on first use. Thread-safe (sweeps decode concurrently).
  static std::shared_ptr<const DecodedProgram> get(
      const std::shared_ptr<const rvasm::Program>& program);

  /// Micro-op index for a text address; throws copift::Error on addresses
  /// outside the text section or misaligned ones (same contract as
  /// Program::text_index). Inline, with one compare and a shift, because the
  /// integer core calls it on every fetched instruction.
  [[nodiscard]] std::uint32_t index_of(std::uint32_t pc) const {
    const std::uint32_t offset = pc - text_base_;
    if (offset < text_bytes_ && (pc & 3U) == 0) return offset >> 2;
    throw_bad_text_address(pc);
  }

  [[nodiscard]] const MicroOp& op(std::uint32_t index) const noexcept { return ops_[index]; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(ops_.size());
  }
  [[nodiscard]] const rvasm::Program& program() const noexcept { return *program_; }

 private:
  [[noreturn]] void throw_bad_text_address(std::uint32_t pc) const;

  std::shared_ptr<const rvasm::Program> program_;
  std::vector<MicroOp> ops_;
  std::uint32_t text_base_ = 0;
  std::uint32_t text_bytes_ = 0;  // 4 * ops_.size()
};

}  // namespace copift::sim
