// Functional memory: byte-addressed storage for TCDM and DRAM regions.
//
// Timing (bank conflicts, DMA bandwidth) is modeled separately by TcdmArbiter
// and DmaEngine; this class answers "what is at address X" only.
#pragma once

#include <cstdint>
#include <vector>

#include "common/layout.hpp"

namespace copift::mem {

/// Observer for functional memory traffic, used by the debug subsystem's
/// watchpoints. Purely observational: implementations must not touch memory.
/// The null default keeps the access paths a single pointer test, so runs
/// without a debugger attached are bit-identical and effectively free.
class MemWatcher {
 public:
  virtual ~MemWatcher() = default;
  virtual void on_load(std::uint32_t addr, std::uint32_t size) = 0;
  virtual void on_store(std::uint32_t addr, std::uint32_t size) = 0;
};

class AddressSpace {
 public:
  AddressSpace();

  /// Install (or clear, with nullptr) the traffic observer. Bulk program
  /// loading via write_block() is not reported — it happens before cycle 0.
  void set_watcher(MemWatcher* watcher) noexcept { watcher_ = watcher; }

  /// Narrow loads return zero-extended values; the core sign-extends.
  [[nodiscard]] std::uint8_t load8(std::uint32_t addr) const;
  [[nodiscard]] std::uint16_t load16(std::uint32_t addr) const;
  [[nodiscard]] std::uint32_t load32(std::uint32_t addr) const;
  [[nodiscard]] std::uint64_t load64(std::uint32_t addr) const;

  void store8(std::uint32_t addr, std::uint8_t value);
  void store16(std::uint32_t addr, std::uint16_t value);
  void store32(std::uint32_t addr, std::uint32_t value);
  void store64(std::uint32_t addr, std::uint64_t value);

  /// Bulk initialization (program loading).
  void write_block(std::uint32_t addr, const std::vector<std::uint8_t>& bytes);

  /// Raw copy used by the DMA engine.
  void copy(std::uint32_t dst, std::uint32_t src, std::uint32_t bytes);

 private:
  // Maps [addr, addr + size) to backing storage; throws SimError naming the
  // address when any byte of it is unmapped. The range is checked in 64-bit
  // arithmetic, so an access that would wrap past 2^32 is rejected.
  [[nodiscard]] const std::uint8_t* at(std::uint32_t addr, std::uint64_t size) const;
  [[nodiscard]] std::uint8_t* at(std::uint32_t addr, std::uint64_t size);

  // Extend the lazily-grown DRAM backing store to cover `required` bytes.
  void grow_dram(std::uint32_t required);

  MemWatcher* watcher_ = nullptr;
  std::vector<std::uint8_t> tcdm_;
  // DRAM backing grows on demand to the touched high-water mark instead of
  // committing (and zeroing) all of kDramSize up front: constructing a
  // cluster used to cost a 32 MiB memset, which dominated single-run
  // latency. Untouched bytes read as zero either way.
  std::vector<std::uint8_t> dram_;
  std::uint32_t dram_used_ = 0;  // logical bytes backed by dram_
};

}  // namespace copift::mem
