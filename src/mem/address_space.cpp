#include "mem/address_space.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace copift::mem {

namespace {
// DRAM growth granularity; keeps the resize count logarithmic without
// committing pages nothing touches.
constexpr std::uint32_t kDramChunk = 64 * 1024;

/// True when [addr, addr + size) lies inside [base, base + window). Every
/// range check goes through here in 64-bit arithmetic: in 32 bits, an address
/// within `size` bytes of 2^32 wraps `addr + size` to a small value.
constexpr bool within(std::uint32_t addr, std::uint64_t size, std::uint32_t base,
                      std::uint32_t window) {
  return addr >= base && std::uint64_t{addr} + size <= std::uint64_t{base} + window;
}
}  // namespace

AddressSpace::AddressSpace() : tcdm_(kTcdmSize, 0) {}

const std::uint8_t* AddressSpace::at(std::uint32_t addr, std::uint64_t size) const {
  return const_cast<AddressSpace*>(this)->at(addr, size);
}

std::uint8_t* AddressSpace::at(std::uint32_t addr, std::uint64_t size) {
  if (within(addr, size, kTcdmBase, kTcdmSize)) {
    return tcdm_.data() + (addr - kTcdmBase);
  }
  if (within(addr, size, kDramBase, kDramSize)) {
    const std::uint32_t end = static_cast<std::uint32_t>(addr - kDramBase + size);
    if (end > dram_used_) grow_dram(end);
    return dram_.data() + (addr - kDramBase);
  }
  std::ostringstream os;
  os << "unmapped memory access at 0x" << std::hex << addr << " size " << std::dec << size;
  throw SimError(os.str());
}

void AddressSpace::grow_dram(std::uint32_t required) {
  std::uint64_t target = std::max<std::uint64_t>(required, std::uint64_t{dram_used_} * 2);
  target = (target + kDramChunk - 1) / kDramChunk * kDramChunk;
  target = std::min<std::uint64_t>(target, kDramSize);
  dram_used_ = static_cast<std::uint32_t>(target);
  dram_.resize(dram_used_);  // value-initialization zero-fills the new bytes
}

std::uint8_t AddressSpace::load8(std::uint32_t addr) const {
  if (watcher_) watcher_->on_load(addr, 1);
  return *at(addr, 1);
}

std::uint16_t AddressSpace::load16(std::uint32_t addr) const {
  if (watcher_) watcher_->on_load(addr, 2);
  std::uint16_t v;
  std::memcpy(&v, at(addr, 2), 2);
  return v;
}

std::uint32_t AddressSpace::load32(std::uint32_t addr) const {
  if (watcher_) watcher_->on_load(addr, 4);
  std::uint32_t v;
  std::memcpy(&v, at(addr, 4), 4);
  return v;
}

std::uint64_t AddressSpace::load64(std::uint32_t addr) const {
  if (watcher_) watcher_->on_load(addr, 8);
  std::uint64_t v;
  std::memcpy(&v, at(addr, 8), 8);
  return v;
}

void AddressSpace::store8(std::uint32_t addr, std::uint8_t value) {
  if (watcher_) watcher_->on_store(addr, 1);
  *at(addr, 1) = value;
}

void AddressSpace::store16(std::uint32_t addr, std::uint16_t value) {
  if (watcher_) watcher_->on_store(addr, 2);
  std::memcpy(at(addr, 2), &value, 2);
}

void AddressSpace::store32(std::uint32_t addr, std::uint32_t value) {
  if (watcher_) watcher_->on_store(addr, 4);
  std::memcpy(at(addr, 4), &value, 4);
}

void AddressSpace::store64(std::uint32_t addr, std::uint64_t value) {
  if (watcher_) watcher_->on_store(addr, 8);
  std::memcpy(at(addr, 8), &value, 8);
}

void AddressSpace::write_block(std::uint32_t addr, const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  std::memcpy(at(addr, bytes.size()), bytes.data(), bytes.size());
}

void AddressSpace::copy(std::uint32_t dst, std::uint32_t src, std::uint32_t bytes) {
  if (bytes == 0) return;
  if (watcher_) {
    watcher_->on_load(src, bytes);
    watcher_->on_store(dst, bytes);
  }
  // Resolve the source after the destination: either at() may grow the DRAM
  // backing store, which would invalidate a previously obtained pointer.
  std::uint8_t* d = at(dst, bytes);
  const std::uint8_t* s = at(src, bytes);
  d = at(dst, bytes);  // re-resolve in case the source lookup grew DRAM
  std::memmove(d, s, bytes);
}

}  // namespace copift::mem
