// Allocation bound of every binary decoder: a 1 MiB hostile payload whose
// element counts claim far more than its bytes can hold must be rejected
// without allocating in proportion to the claim. A counting global
// operator new measures every byte a decode (and, for an accepted payload,
// its re-encoding) asks for. Its own binary, because the replacement
// operator new is process-wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "wire_goldens.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

// Kept out of line so the compiler never pairs an inlined delete with the
// allocation it frees (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}

namespace healers::wiretest {
namespace {

constexpr std::size_t kPayloadBytes = 1 << 20;
constexpr std::size_t kAllocationBound = 8 << 20;

// Bytes allocated while `round_trip` runs on `payload`.
std::size_t allocated_by(RoundTrip round_trip, const std::string& payload) {
  g_allocated.store(0);
  g_counting.store(true);
  (void)round_trip(payload);
  g_counting.store(false);
  return g_allocated.load();
}

// The golden's bytes up to `offset`, then `claim` as a u32, then zeros up
// to kPayloadBytes.
std::string hostile(const std::string& golden, std::size_t offset, std::uint32_t claim) {
  std::string payload = golden.substr(0, offset);
  payload.resize(offset + 4);
  put_u32_at(payload, offset, claim);
  payload.resize(kPayloadBytes, '\0');
  return payload;
}

TEST(WireAlloc, HostileCountsStayWithinTheBound) {
  for (const FixtureGolden& golden : load_goldens()) {
    const RoundTrip round_trip = format_of(golden.name).round_trip;
    // Each count claims the u32 maximum, and the largest count a guard of
    // `count <= payload size` would still have let through.
    std::vector<std::string> payloads;
    for (const std::size_t offset : golden.count_offsets) {
      payloads.push_back(hostile(golden.bytes, offset, 0xffffffffU));
      payloads.push_back(hostile(golden.bytes, offset, kPayloadBytes));
    }
    // Formats without counts still get 1 MiB: the golden plus trailing zeros.
    std::string padded = golden.bytes;
    padded.resize(kPayloadBytes, '\0');
    payloads.push_back(std::move(padded));

    std::size_t worst = 0;
    for (const std::string& payload : payloads) {
      worst = std::max(worst, allocated_by(round_trip, payload));
    }
    EXPECT_LE(worst, kAllocationBound) << golden.name << " allocated " << worst << " bytes";
  }
}

}  // namespace
}  // namespace healers::wiretest
