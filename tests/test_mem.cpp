#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "common/error.hpp"
#include "common/layout.hpp"
#include "mem/address_space.hpp"
#include "mem/dma.hpp"
#include "mem/l0_icache.hpp"
#include "mem/tcdm.hpp"

namespace copift::mem {
namespace {

TEST(AddressSpace, RoundTripAllWidths) {
  AddressSpace m;
  m.store8(kTcdmBase, 0xAB);
  EXPECT_EQ(m.load8(kTcdmBase), 0xAB);
  m.store16(kTcdmBase + 2, 0xBEEF);
  EXPECT_EQ(m.load16(kTcdmBase + 2), 0xBEEF);
  m.store32(kTcdmBase + 4, 0xDEADBEEF);
  EXPECT_EQ(m.load32(kTcdmBase + 4), 0xDEADBEEFu);
  m.store64(kTcdmBase + 8, 0x0102030405060708ull);
  EXPECT_EQ(m.load64(kTcdmBase + 8), 0x0102030405060708ull);
  m.store64(kDramBase, 42);
  EXPECT_EQ(m.load64(kDramBase), 42u);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace m;
  m.store32(kTcdmBase, 0x04030201);
  EXPECT_EQ(m.load8(kTcdmBase), 0x01);
  EXPECT_EQ(m.load8(kTcdmBase + 3), 0x04);
}

TEST(AddressSpace, UnmappedThrows) {
  AddressSpace m;
  EXPECT_THROW(m.load32(0x100), SimError);
  EXPECT_THROW(m.store32(kTcdmBase + kTcdmSize, 1), SimError);
  EXPECT_THROW(m.load64(kTcdmBase + kTcdmSize - 4), SimError);  // straddles end
}

/// Expects `fn` to throw the SimError for an unmapped access naming `addr`.
template <typename Fn>
void expect_unmapped(Fn&& fn, const std::string& addr) {
  try {
    fn();
    FAIL() << "expected an unmapped access at " << addr;
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unmapped memory access at " + addr),
              std::string::npos)
        << e.what();
  }
}

// Ranges ending past 2^32 used to wrap in the 32-bit bounds check and map to
// host memory about 4 GiB past the TCDM backing store.
TEST(AddressSpace, AccessesWrappingPastTopThrow) {
  AddressSpace m;
  expect_unmapped([&] { m.store32(0xFFFF'FFFCu, 1); }, "0xfffffffc");
  expect_unmapped([&] { (void)m.load32(0xFFFF'FFFEu); }, "0xfffffffe");
  expect_unmapped([&] { (void)m.load64(0xFFFF'FFFFu); }, "0xffffffff");
  expect_unmapped([&] { (void)m.load8(0xFFFF'FFFFu); }, "0xffffffff");
  expect_unmapped([&] { m.store8(0xFFFF'FFFFu, 1); }, "0xffffffff");
}

TEST(AddressSpace, WriteBlockWrappingPastTopThrows) {
  AddressSpace m;
  expect_unmapped([&] { m.write_block(0xFFFF'FFFCu, {1, 2, 3, 4, 5, 6, 7, 8}); },
                  "0xfffffffc");
}

TEST(AddressSpace, CopyWrappingPastTopThrows) {
  AddressSpace m;
  expect_unmapped([&] { m.copy(0xFFFF'FFC0u, kTcdmBase, 128); }, "0xffffffc0");
  expect_unmapped([&] { m.copy(kTcdmBase, 0xFFFF'FFC0u, 128); }, "0xffffffc0");
}

TEST(Dma, TransferWrappingPastTopThrows) {
  AddressSpace m;
  DmaEngine dma(m, 128);
  dma.set_src(kTcdmBase);
  dma.set_dst(0xFFFF'FFC0u);
  dma.start(128);
  expect_unmapped([&] { dma.tick(); }, "0xffffffc0");
}

TEST(AddressSpace, BlockWriteAndCopy) {
  AddressSpace m;
  m.write_block(kTcdmBase, {1, 2, 3, 4});
  EXPECT_EQ(m.load32(kTcdmBase), 0x04030201u);
  m.copy(kTcdmBase + 16, kTcdmBase, 4);
  EXPECT_EQ(m.load32(kTcdmBase + 16), 0x04030201u);
  m.copy(kDramBase, kTcdmBase, 4);
  EXPECT_EQ(m.load32(kDramBase), 0x04030201u);
}

TEST(Tcdm, NoConflictDifferentBanks) {
  TcdmArbiter arb(32);
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 8},
      {TcdmPort::kSsr1, kTcdmBase + 16},
  };
  EXPECT_EQ(arb.arbitrate(reqs), 0b111u);
  EXPECT_EQ(arb.conflicts(), 0u);
}

TEST(Tcdm, ConflictSameBank) {
  TcdmArbiter arb(32);
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 0},  // same bank
  };
  const auto grants = arb.arbitrate(reqs);
  EXPECT_EQ(__builtin_popcountll(grants), 1);
  EXPECT_EQ(arb.conflicts(), 1u);
}

TEST(Tcdm, SameBankDifferentWord) {
  TcdmArbiter arb(4);  // 4 banks: addresses 32 bytes apart share a bank
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 32},
  };
  EXPECT_EQ(__builtin_popcountll(arb.arbitrate(reqs)), 1);
}

TEST(Tcdm, RoundRobinFairness) {
  TcdmArbiter arb(32);
  // Two requesters fighting for the same bank must alternate.
  int wins0 = 0;
  int wins1 = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<TcdmRequest> reqs = {
        {TcdmPort::kIntLsu, kTcdmBase}, {TcdmPort::kSsr0, kTcdmBase}};
    const auto grants = arb.arbitrate(reqs);
    if (grants & 1) ++wins0;
    if (grants & 2) ++wins1;
  }
  EXPECT_EQ(wins0 + wins1, 100);
  EXPECT_GT(wins0, 20);
  EXPECT_GT(wins1, 20);
}

TEST(Tcdm, BankOfInterleaving) {
  TcdmArbiter arb(32);
  EXPECT_EQ(arb.bank_of(kTcdmBase + 0), arb.bank_of(kTcdmBase + 32 * 8));
  EXPECT_NE(arb.bank_of(kTcdmBase + 0), arb.bank_of(kTcdmBase + 8));
}

namespace {

/// Reference arbitration: the pre-optimization algorithm (rotating priority
/// via a stable sort over the requests), transcribed verbatim. The
/// production arbiter replaced the per-cycle sort and scratch allocations
/// with rotating-start chain iteration; grants must stay bit-identical.
class ReferenceArbiter {
 public:
  ReferenceArbiter(unsigned num_banks, unsigned num_harts)
      : num_banks_(num_banks), num_requesters_(kNumTcdmPorts * num_harts) {}

  std::uint64_t arbitrate(const std::vector<TcdmRequest>& requests) {
    std::uint64_t granted = 0;
    std::vector<bool> bank_taken(num_banks_, false);
    std::vector<unsigned> order(requests.size());
    for (unsigned i = 0; i < requests.size(); ++i) order[i] = i;
    const auto priority = [&](const TcdmRequest& r) {
      const unsigned id = r.hart * kNumTcdmPorts + static_cast<unsigned>(r.port);
      return (id + num_requesters_ - rr_) % num_requesters_;
    };
    std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
      return priority(requests[a]) < priority(requests[b]);
    });
    for (unsigned i : order) {
      const unsigned bank = (requests[i].addr >> 3) % num_banks_;
      if (bank_taken[bank]) {
        ++conflicts_;
        continue;
      }
      bank_taken[bank] = true;
      granted |= (std::uint64_t{1} << i);
      ++grants_;
    }
    rr_ = (rr_ + 1) % num_requesters_;
    return granted;
  }

  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

 private:
  unsigned num_banks_;
  unsigned num_requesters_;
  unsigned rr_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace

// Guard for the allocation-free rewrite: randomized multi-hart request
// patterns over thousands of cycles must produce exactly the grant masks of
// the historical stable-sort arbiter (same rotating-priority decisions, same
// conflict counts).
TEST(Tcdm, RotatingIterationMatchesStableSortReference) {
  constexpr unsigned kBanks = 8;
  constexpr unsigned kHarts = 4;
  TcdmArbiter arb(kBanks, kHarts);
  ReferenceArbiter ref(kBanks, kHarts);
  std::mt19937 rng(1234);
  std::uint64_t total_grants = 0;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    std::vector<TcdmRequest> reqs;
    // Each (hart, port) pair presents at most one request, like the cluster.
    for (unsigned h = 0; h < kHarts; ++h) {
      for (unsigned p = 0; p < kNumTcdmPorts; ++p) {
        if ((rng() & 3u) != 0) continue;  // ~25% of ports active per cycle
        TcdmRequest r;
        r.port = static_cast<TcdmPort>(p);
        r.addr = kTcdmBase + (rng() % 64) * 8;
        r.hart = h;
        reqs.push_back(r);
      }
    }
    const std::uint64_t got = arb.arbitrate(reqs);
    const std::uint64_t want = ref.arbitrate(reqs);
    ASSERT_EQ(got, want) << "cycle " << cycle << " with " << reqs.size() << " requests";
    total_grants += static_cast<std::uint64_t>(__builtin_popcountll(got));
  }
  EXPECT_EQ(arb.grants(), total_grants);
  EXPECT_GT(arb.conflicts(), 0u);  // the pattern actually exercised conflicts
}

/// One cycle's requests: each (hart, port) pair presents at most one, like
/// the cluster. `kind` picks the shape: 0 no requests, 1 a single request,
/// 2 several requests on pairwise distinct banks (the conflict-free path),
/// 3 several requests on a few banks (conflicts likely).
std::vector<TcdmRequest> random_cycle(std::mt19937& rng, unsigned kind, unsigned banks,
                                      unsigned harts) {
  std::vector<TcdmRequest> reqs;
  if (kind == 0) return reqs;
  std::vector<unsigned> free_banks(banks);
  for (unsigned b = 0; b < banks; ++b) free_banks[b] = b;
  std::shuffle(free_banks.begin(), free_banks.end(), rng);
  for (unsigned h = 0; h < harts; ++h) {
    for (unsigned p = 0; p < kNumTcdmPorts; ++p) {
      if (kind == 1 ? !reqs.empty() || rng() % (harts * kNumTcdmPorts) != 0 : rng() % 3 != 0) {
        continue;
      }
      unsigned bank = 0;
      if (kind == 3) {
        bank = rng() % 4;
      } else if (reqs.size() < free_banks.size()) {
        bank = free_banks[reqs.size()];
      } else {
        break;
      }
      // Any word of the bank: the row above the bank index varies too.
      const std::uint32_t word = bank + banks * static_cast<std::uint32_t>(rng() % 16);
      reqs.push_back(TcdmRequest{static_cast<TcdmPort>(p), kTcdmBase + word * 8, h});
    }
  }
  if (kind == 1 && reqs.empty()) {
    const auto word = static_cast<std::uint32_t>(rng() % banks);
    reqs.push_back(TcdmRequest{TcdmPort::kIntLsu, kTcdmBase + 8 * word,
                               static_cast<unsigned>(rng() % harts)});
  }
  return reqs;
}

// The conflict-free path must grant exactly what the rotating-priority walk
// grants, keep grants()/conflicts() exact, and rotate the priority only on
// cycles that arbitrate: empty cycles are skipped on the reference, so a
// rotation on them shows as a diverging grant mask on a later conflicting
// cycle. Covers power-of-two, other and more-than-64 bank counts (the last
// always takes the fallback walk).
TEST(Tcdm, ConflictFreePathMatchesReference) {
  for (const unsigned banks : {32u, 8u, 24u, 128u}) {
    for (const unsigned harts : {1u, 4u, 8u}) {
      TcdmArbiter arb(banks, harts);
      ReferenceArbiter ref(banks, harts);
      std::mt19937 rng(banks * 131 + harts);
      unsigned seen[4] = {};
      for (int cycle = 0; cycle < 4000; ++cycle) {
        const unsigned kind = rng() % 4;
        const std::vector<TcdmRequest> reqs = random_cycle(rng, kind, banks, harts);
        ++seen[kind];
        const std::uint64_t got = arb.arbitrate(reqs);
        if (reqs.empty()) {
          EXPECT_EQ(got, 0u);
          continue;  // no arbitration: the reference is not called either
        }
        const std::uint64_t want = ref.arbitrate(reqs);
        ASSERT_EQ(got, want) << banks << " banks, " << harts << " harts, cycle " << cycle
                             << " (kind " << kind << ", " << reqs.size() << " requests)";
        ASSERT_EQ(arb.grants(), ref.grants()) << "cycle " << cycle;
        ASSERT_EQ(arb.conflicts(), ref.conflicts()) << "cycle " << cycle;
        if (kind == 2) {
          EXPECT_EQ(got, (std::uint64_t{1} << reqs.size()) - 1);  // all distinct: all granted
        }
      }
      for (const unsigned n : seen) EXPECT_GT(n, 0u);
      EXPECT_GT(arb.conflicts(), 0u);
    }
  }
}

TEST(L0, SequentialStreamIsPrefetched) {
  L0ICache l0(8, 8, 2);
  unsigned total_penalty = 0;
  for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 100; pc += 4) {
    total_penalty += l0.fetch(pc);
  }
  // First line is a cold branch miss; every other line is prefetched.
  EXPECT_EQ(total_penalty, 2u);
  EXPECT_GT(l0.stats().sequential_refills, 10u);
}

TEST(L0, SmallLoopFits) {
  L0ICache l0(8, 8, 2);
  // 32-instruction loop executed 10 times: only cold refills.
  for (int iter = 0; iter < 10; ++iter) {
    for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 32; pc += 4) l0.fetch(pc);
  }
  EXPECT_EQ(l0.stats().refills(), 4u);  // 32 instrs = 4 lines, fetched once
  EXPECT_EQ(l0.stats().branch_misses + l0.stats().sequential_refills, 4u);
}

TEST(L0, LargeLoopThrashes) {
  L0ICache l0(8, 8, 2);  // 64-instruction capacity
  // 96-instruction loop: every iteration refills every line (FIFO).
  for (int iter = 0; iter < 10; ++iter) {
    for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 96; pc += 4) l0.fetch(pc);
  }
  EXPECT_GE(l0.stats().refills(), 10u * 12u - 12u);
}

TEST(L0, FlushEvicts) {
  L0ICache l0(8, 8, 2);
  l0.fetch(0x1000);
  l0.reset_stats();
  l0.fetch(0x1000);
  EXPECT_EQ(l0.stats().hits, 1u);
  l0.flush();
  l0.reset_stats();
  EXPECT_GT(l0.fetch(0x1000), 0u);  // branch miss again
}

TEST(Dma, CopiesAndTracksBusy) {
  AddressSpace m;
  for (unsigned i = 0; i < 256; ++i) m.store8(kDramBase + i, static_cast<std::uint8_t>(i));
  DmaEngine dma(m, 64);
  dma.set_src(kDramBase);
  dma.set_dst(kTcdmBase);
  dma.start(256);
  EXPECT_EQ(dma.pending(), 1u);
  unsigned ticks = 0;
  while (dma.pending() > 0 && ticks < 100) {
    dma.tick();
    ++ticks;
  }
  EXPECT_EQ(ticks, 4u);  // 256 bytes at 64 B/cycle
  EXPECT_EQ(dma.busy_cycles(), 4u);
  EXPECT_EQ(dma.bytes_moved(), 256u);
  for (unsigned i = 0; i < 256; ++i) EXPECT_EQ(m.load8(kTcdmBase + i), i);
}

TEST(Dma, QueuesMultipleTransfers) {
  AddressSpace m;
  DmaEngine dma(m, 64);
  dma.set_src(kDramBase);
  dma.set_dst(kTcdmBase);
  dma.start(64);
  dma.set_src(kDramBase + 1024);
  dma.set_dst(kTcdmBase + 1024);
  dma.start(64);
  EXPECT_EQ(dma.pending(), 2u);
  dma.tick();
  EXPECT_EQ(dma.pending(), 1u);
  dma.tick();
  EXPECT_EQ(dma.pending(), 0u);
  dma.tick();  // idle tick
  EXPECT_EQ(dma.busy_cycles(), 2u);
}

}  // namespace
}  // namespace copift::mem
