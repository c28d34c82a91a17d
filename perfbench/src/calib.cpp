#include "calib.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// The loop's bytecode and data, one copy per thread (the loop writes data).
struct State {
  std::vector<std::uint8_t> code = std::vector<std::uint8_t>(std::size_t{1} << 15);
  std::vector<std::uint32_t> data = std::vector<std::uint32_t>(std::size_t{1} << 14);
  std::uint64_t sink = 0;
  State() {
    std::uint64_t s = 88172645463325252ULL;
    for (auto& c : code) c = static_cast<std::uint8_t>(xorshift(s) % 48);
    for (auto& d : data) d = static_cast<std::uint32_t>(xorshift(s));
  }
};

}  // namespace

double calibration_rate() {
  constexpr std::uint64_t kSteps = 200000;
  thread_local State state;
  const auto& code = state.code;
  auto& data = state.data;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t r[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const std::size_t mask = code.size() - 1;
  std::size_t pc = 0;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    const std::uint8_t op = code[pc];
    const std::uint32_t a = r[op & 15];
    const std::uint32_t b = r[(op >> 2) & 15];
    switch (op) {
      case 0: r[0] = a + b; break;
      case 1: r[7] = a - b; break;
      case 2: r[14] = a ^ b; break;
      case 3: r[5] = a | b; break;
      case 4: r[12] = a & b; break;
      case 5: r[3] = a << (b & 31); break;
      case 6: r[10] = a >> (b & 31); break;
      case 7: r[1] = a * b; break;
      case 8: r[8] = a + 1; break;
      case 9: r[15] = b - 1; break;
      case 10: r[6] = data[a & 16383]; break;
      case 11: r[13] = data[b & 16383] + a; break;
      case 12: r[4] = static_cast<std::uint32_t>(a == b); break;
      case 13: r[11] = static_cast<std::uint32_t>(a < b); break;
      case 14: r[2] = ~a; break;
      case 15: r[9] = 0U - b; break;
      case 16: r[0] = a + b + 1; break;
      case 17: r[7] = a * 3; break;
      case 18: r[14] = b * 5; break;
      case 19: r[5] = a ^ 0x55U; break;
      case 20: r[12] = data[(a + b) & 16383]; break;
      case 21: r[3] = a >> 1; break;
      case 22: r[10] = b << 1; break;
      case 23: r[1] = a + 7; break;
      case 24: r[8] = a - b - 1; break;
      case 25: r[15] = a | 1U; break;
      case 26: r[6] = b & 7U; break;
      case 27: r[13] = a * b + 1; break;
      case 28: r[4] = data[(a ^ b) & 16383] ^ a; break;
      case 29: r[11] = a + b * 2; break;
      case 30: r[2] = a - 3; break;
      case 31: r[9] = b + 9; break;
      case 32: r[0] = a ^ b ^ 1U; break;
      case 33: r[7] = a & ~b; break;
      case 34: r[14] = a | b | 2U; break;
      case 35: r[5] = a + b + 3; break;
      case 36: r[12] = data[a & 1023]; break;
      case 37: r[3] = a * 7; break;
      case 38: r[10] = b * 11; break;
      case 39: r[1] = a >> 3; break;
      case 40: r[8] = b >> 5; break;
      case 41: r[15] = a + b + 5; break;
      case 42: r[6] = a ^ b ^ 7U; break;
      case 43: r[13] = (a + b) >> 1; break;
      case 44: r[4] = a - b + 9; break;
      case 45: r[11] = a * b * 3; break;
      case 46: r[2] = data[b & 4095] + 1; break;
      case 47: r[9] = a + b + 11; break;
      default: break;
    }
    if (op == 10) data[b & 16383] = a;
    pc = (pc + 1 + (r[op & 15] & 3)) & mask;
    acc += r[op & 15];
  }
  state.sink += acc;  // keeps the loop's work observable
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(kSteps) / s;
}

}  // namespace perfbench
