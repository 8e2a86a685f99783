// The process-wide Android system image: Devices bind one immutable image
// instead of assembling the system libraries again, so every Device must
// come out identical however, wherever and after whatever it is built.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "android/device.h"
#include "apps/leak_cases.h"
#include "arm/assembler.h"

namespace ndroid::android {
namespace {

using arm::Assembler;
using arm::R;

/// FNV-1a over every resident page (address and bytes).
u64 page_digest(const mem::AddressSpace& memory) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&](u8 b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (const auto& page : memory.copy_pages(0, u64{1} << 32)) {
    for (int s = 0; s < 32; s += 8) mix(static_cast<u8>(page.base >> s));
    for (u8 b : page.bytes) mix(b);
  }
  return h;
}

void expect_same_regions(const mem::MemoryMap& a, const mem::MemoryMap& b) {
  ASSERT_EQ(a.regions().size(), b.regions().size());
  for (std::size_t i = 0; i < a.regions().size(); ++i) {
    const mem::Region& x = a.regions()[i];
    const mem::Region& y = b.regions()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.perms, y.perms);
  }
}

void expect_same_device(const Device& a, const Device& b) {
  EXPECT_EQ(page_digest(a.memory), page_digest(b.memory));
  EXPECT_EQ(a.memory.resident_pages(), b.memory.resident_pages());
  expect_same_regions(a.memmap, b.memmap);
  EXPECT_EQ(a.dvm.symbols(), b.dvm.symbols());
  EXPECT_EQ(a.jni.symbols(), b.jni.symbols());
  EXPECT_EQ(a.libc.symbols(), b.libc.symbols());
  EXPECT_EQ(a.jni.env_addr(), b.jni.env_addr());
}

u32 guest_strlen(Device& d, const std::string& s) {
  const GuestAddr buf = d.dvm.data_cstr(s);
  return d.cpu.call_function(d.libc.fn("strlen"), {buf});
}

TEST(SystemImage, FreshThreadDeviceMatchesDeviceBuiltAfterDirtyJob) {
  std::unique_ptr<Device> fresh;
  std::thread([&] { fresh = std::make_unique<Device>(); }).join();

  {
    // Run a Table I job, then scribble over this Device's own copies of the
    // system pages: a data write into libdvm.so (the JNIEnv* word) and
    // self-modifying code in libc.so (strlen replaced after it ran).
    Device dirty;
    const auto cases = apps::all_cases();
    ASSERT_FALSE(cases.empty());
    const apps::LeakScenario scenario = cases.front().second(dirty);
    dirty.dvm.call(*scenario.entry, {});
    EXPECT_EQ(guest_strlen(dirty, "abcd"), 4u);
    dirty.memory.write32(dirty.jni.env_addr(), 0xDEADBEEF);
    const GuestAddr strlen_fn = dirty.libc.fn("strlen");
    Assembler a(strlen_fn);
    a.mov_imm(R(0), 7);
    a.ret();
    dirty.memory.write_bytes(strlen_fn, a.finish());
    EXPECT_EQ(guest_strlen(dirty, "abcd"), 7u);
  }

  Device after;
  expect_same_device(*fresh, after);
  EXPECT_EQ(guest_strlen(after, "abcd"), 4u);
  // The tables are views of the one shared image, not copies.
  EXPECT_EQ(&fresh->jni.symbols(), &after.jni.symbols());
  EXPECT_EQ(&fresh->libc.symbols(), &after.libc.symbols());
  EXPECT_EQ(&fresh->dvm.symbols(), &after.dvm.symbols());
}

TEST(SystemImage, WritesToOneDeviceNeverShowInAnother) {
  Device a;
  Device b;
  const u64 before = page_digest(b.memory);
  const GuestAddr strlen_fn = a.libc.fn("strlen");
  Assembler code(strlen_fn);
  code.mov_imm(R(0), 9);
  code.ret();
  a.memory.write_bytes(strlen_fn, code.finish());
  a.memory.write32(a.jni.env_addr(), 0);
  a.memory.write32(a.dvm.sym("dvmCallJNIMethod"), 0);
  EXPECT_EQ(guest_strlen(a, "xy"), 9u);

  EXPECT_EQ(page_digest(b.memory), before);
  EXPECT_NE(b.memory.read32(b.jni.env_addr()), 0u);
  EXPECT_EQ(guest_strlen(b, "xy"), 2u);
}

TEST(SystemImage, ConcurrentConstructionIsIdentical) {
  const Device reference;
  const u64 want = page_digest(reference.memory);
  constexpr int kThreads = 8;
  constexpr int kDevicesPerThread = 6;
  std::vector<int> matches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDevicesPerThread; ++i) {
        Device d;
        const bool same = page_digest(d.memory) == want &&
                          guest_strlen(d, "concurrent") == 10u;
        matches[t] += same ? 1 : 0;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(matches[t], kDevicesPerThread);
}

TEST(SystemImage, BuiltExactlyOncePerProcess) {
  (void)SystemImage::get();
  { Device d; }
  std::thread([] { Device d; }).join();
  EXPECT_EQ(SystemImage::builds(), 1u);
  EXPECT_EQ(&SystemImage::get(), &SystemImage::get());
}

TEST(SystemImage, DecodeCountersCountOnlyTheirOwnCpu) {
  // Two bare Cpus on one thread share the thread's decode memo; each
  // counts only the lookups it made itself. The interpretive tier decodes
  // once per instruction, so lookups == instructions retired.
  constexpr GuestAddr kCode = 0x10000;
  mem::AddressSpace mem1, mem2;
  mem::MemoryMap map1, map2;
  arm::Cpu cpu1(mem1, map1), cpu2(mem2, map2);
  Assembler a(kCode);
  a.mov_imm(R(0), 3);
  a.add_imm(R(0), R(0), 0x55);
  a.eor(R(0), R(0), R(0));
  a.ret();
  const auto code = a.finish();
  for (auto* c : {&cpu1, &cpu2}) {
    c->memory().write_bytes(kCode, code);
    c->set_initial_sp(0x80000);
    c->set_use_tb_cache(false);
  }

  cpu1.call_function(kCode);
  const u64 lookups1 = cpu1.decode_lookups();
  const u64 hits1 = cpu1.decode_hits();
  EXPECT_EQ(lookups1, cpu1.instructions_retired());

  // Same words on the other Cpu: all memo hits, all counted on cpu2 only.
  cpu2.call_function(kCode);
  cpu2.call_function(kCode);
  EXPECT_EQ(cpu2.decode_lookups(), cpu2.instructions_retired());
  EXPECT_EQ(cpu2.decode_hits(), cpu2.decode_lookups());
  EXPECT_EQ(cpu1.decode_lookups(), lookups1);
  EXPECT_EQ(cpu1.decode_hits(), hits1);

  // Interleave once more: each side moves by exactly its own work.
  cpu1.call_function(kCode);
  EXPECT_EQ(cpu1.decode_lookups(), 2 * lookups1);
  EXPECT_EQ(cpu1.decode_hits(), hits1 + lookups1);
  EXPECT_EQ(cpu2.decode_lookups(), 2 * lookups1);
}

}  // namespace
}  // namespace ndroid::android
