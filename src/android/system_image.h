// The Android system half of every Device, built once per process.
//
// libdvm.so (the JNI bridge, the MAF stubs, the JNIEnv function table),
// libc.so/libm.so and the kernel skeleton are identical on every Device, so
// they are assembled exactly once (under std::call_once, on first use) into
// this immutable image: the resident guest pages they occupy, the system
// memory map, the dense helper table, and the libdvm, JNI and libc symbol
// tables. Constructing a Device then *binds* the image in work proportional
// to its handful of pages and owners: it copies the pages into its own
// address space, points its layers at the shared const symbol tables, and
// serves the shared helper table from its Cpu (helpers find their per-Device
// Dvm, Libc and Kernel through the Cpu they run on). The class registry,
// framework sources and sinks, heap, kernel process table and allocator
// state stay per Device.
//
// A fork-pool zygote builds the image (and warms its thread's decode memo)
// before forking, so job processes inherit both through copy-on-write.
#pragma once

#include <vector>

#include "arm/cpu.h"
#include "dvm/dvm.h"
#include "jni/jnienv.h"
#include "libc/libc.h"
#include "mem/address_space.h"
#include "mem/memory_map.h"

namespace ndroid::android {

/// Canonical guest layout.
struct Layout {
  static constexpr GuestAddr kAppLibBase = 0x10000000;   // app .so files
  static constexpr GuestAddr kHeapBase = 0x30000000;     // native heap (kernel)
  static constexpr GuestAddr kDalvikHeap = 0x34000000;
  static constexpr u32 kDalvikHeapSize = 0x01000000;
  static constexpr GuestAddr kDalvikStack = 0x38000000;
  static constexpr u32 kDalvikStackSize = 0x00100000;
  static constexpr GuestAddr kLibdvm = 0x40000000;
  static constexpr u32 kLibdvmSize = 0x00040000;
  static constexpr GuestAddr kLibc = 0x40100000;
  static constexpr u32 kLibcSize = 0x00020000;
  static constexpr GuestAddr kLibm = 0x40200000;
  static constexpr u32 kLibmSize = 0x00010000;
  static constexpr GuestAddr kNativeStack = 0xBE000000;
  static constexpr u32 kNativeStackSize = 0x00100000;
};

class SystemImage {
 public:
  /// The process's image, built on the first call from any thread.
  [[nodiscard]] static const SystemImage& get();
  /// Images built by this process so far: 1 once any Device exists.
  [[nodiscard]] static u64 builds();

  SystemImage(const SystemImage&) = delete;
  SystemImage& operator=(const SystemImage&) = delete;

  /// Copies the image's pages into `memory` and returns the system memory
  /// map (the first step of binding a Device).
  [[nodiscard]] mem::MemoryMap install(mem::AddressSpace& memory) const;

  [[nodiscard]] const arm::HelperTable& helpers() const { return helpers_; }
  [[nodiscard]] const dvm::LibdvmImage& libdvm() const { return libdvm_; }
  [[nodiscard]] const jni::JniImage& jni() const { return jni_; }
  [[nodiscard]] const libc::LibcImage& libc() const { return libc_; }
  /// The system libraries as they appear in an app's memory map.
  [[nodiscard]] const std::vector<mem::Region>& app_regions() const {
    return app_regions_;
  }

  /// Decodes the system code into the calling thread's decode memo.
  void warm_decode() const;

 private:
  SystemImage();

  std::vector<mem::AddressSpace::PageCopy> pages_;
  mem::MemoryMap memmap_;
  std::vector<mem::Region> app_regions_;
  arm::HelperTable helpers_;
  dvm::LibdvmImage libdvm_;
  jni::JniImage jni_;
  libc::LibcImage libc_;
};

}  // namespace ndroid::android
