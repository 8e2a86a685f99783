// The emulated Android device: one object wiring every substrate with the
// standard memory layout. Apps (src/apps) are loaded into a Device;
// analysis systems (NDroid, the TaintDroid-only baseline, DroidScope-mode)
// attach to a Device's instrumentation surfaces. Construction binds the
// process-wide SystemImage (system_image.h) instead of assembling the
// system libraries again.
#pragma once

#include <string>
#include <vector>

#include "android/system_image.h"
#include "arm/cpu.h"
#include "dvm/dvm.h"
#include "jni/jnienv.h"
#include "libc/libc.h"
#include "mem/address_space.h"
#include "mem/memory_map.h"
#include "os/kernel.h"
#include "os/view_reconstructor.h"
#include "taintdroid/framework.h"

namespace ndroid::android {

class Device {
 public:
  explicit Device(std::string app_name = "com.example.app",
                  taintdroid::DeviceIdentity identity = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Loads a native library image at the next free app-lib address; the
  /// region is registered globally and in the app process (VMI-visible).
  /// Returns the load base.
  GuestAddr load_native_lib(const std::string& name,
                            std::span<const u8> image);

  /// Next app-lib load base without loading (for assembling PIC-free code
  /// at its final address).
  [[nodiscard]] GuestAddr next_lib_base() const { return lib_bump_; }

  [[nodiscard]] u32 app_pid() const { return app_pid_; }

  mem::AddressSpace memory;
  mem::MemoryMap memmap;
  arm::Cpu cpu;
  os::Kernel kernel;
  dvm::Dvm dvm;
  jni::JniEnv jni;
  libc::Libc libc;
  taintdroid::Framework framework;

 private:
  Device(const SystemImage& image, std::string app_name,
         taintdroid::DeviceIdentity identity);

  GuestAddr lib_bump_ = Layout::kAppLibBase;
  u32 app_pid_ = 0;
};

}  // namespace ndroid::android
