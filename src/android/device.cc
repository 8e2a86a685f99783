#include "android/device.h"

namespace ndroid::android {

Device::Device(std::string app_name, taintdroid::DeviceIdentity identity)
    : Device(SystemImage::get(), std::move(app_name), std::move(identity)) {}

Device::Device(const SystemImage& image, std::string app_name,
               taintdroid::DeviceIdentity identity)
    : memmap(image.install(memory)),
      cpu(memory, memmap),
      kernel(memory),
      dvm(cpu, image.libdvm()),
      jni(dvm, image.jni()),
      libc(cpu, kernel, image.libc()),
      framework(dvm, kernel, std::move(identity)) {
  cpu.install_helpers(image.helpers());
  cpu.set_initial_sp(Layout::kNativeStack + Layout::kNativeStackSize);
  kernel.attach(cpu);
  app_pid_ = kernel.create_process(std::move(app_name), image.app_regions());
}

GuestAddr Device::load_native_lib(const std::string& name,
                                  std::span<const u8> image) {
  const GuestAddr base = lib_bump_;
  const u32 size = (static_cast<u32>(image.size()) + 0xFFFu) & ~0xFFFu;
  memory.write_bytes(base, image);
  const mem::Region& region = memmap.add(name, base, size, mem::kRX);
  kernel.map_region(app_pid_, region);
  lib_bump_ = base + size + 0x1000;  // guard page between libraries
  return base;
}

}  // namespace ndroid::android
