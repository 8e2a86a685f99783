#include "android/system_image.h"

#include <atomic>
#include <mutex>

#include "os/kernel.h"

namespace ndroid::android {

namespace {
std::atomic<u64> g_builds{0};
}  // namespace

const SystemImage& SystemImage::get() {
  static std::once_flag once;
  static const SystemImage* image = nullptr;
  std::call_once(once, [] { image = new SystemImage(); });
  return *image;
}

u64 SystemImage::builds() { return g_builds.load(); }

SystemImage::SystemImage() {
  g_builds.fetch_add(1);
  // Scratch substrate the builders assemble into; only its pages, map and
  // helpers survive.
  mem::AddressSpace memory;
  arm::Cpu cpu(memory, memmap_);
  os::Kernel::build_image(memory, memmap_);
  libdvm_ = dvm::Dvm::build_image(
      cpu, {Layout::kLibdvm, Layout::kLibdvmSize, Layout::kDalvikHeap,
            Layout::kDalvikHeapSize, Layout::kDalvikStack,
            Layout::kDalvikStackSize});
  jni_ = jni::JniEnv::build_image(cpu, libdvm_);
  libc_ = libc::Libc::build_image(cpu, Layout::kLibc, Layout::kLibcSize,
                                  Layout::kLibm, Layout::kLibmSize);
  memmap_.add("[native-stack]", Layout::kNativeStack,
              Layout::kNativeStackSize, mem::kRW);
  helpers_ = cpu.take_helpers();
  pages_ = memory.copy_pages(0, u64{1} << 32);
  // System libraries appear in the app's memory map (VMI ground truth).
  for (const char* lib : {"libdvm.so", "libc.so", "libm.so"}) {
    app_regions_.push_back(*memmap_.find_by_name(lib));
  }
}

mem::MemoryMap SystemImage::install(mem::AddressSpace& memory) const {
  memory.install_pages(pages_);
  return memmap_;
}

void SystemImage::warm_decode() const {
  for (const mem::AddressSpace::PageCopy& page : pages_) {
    const mem::Region* r = memmap_.find(page.base);
    if (r != nullptr && (r->name == "libdvm.so" || r->name == "libc.so")) {
      arm::Cpu::warm_decode(page.bytes);
    }
  }
}

}  // namespace ndroid::android
