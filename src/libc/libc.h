// The guest C library ("libc.so" / "libm.so").
//
// Two implementation classes, mirroring the paper's architecture:
//
//  * String/memory functions (memcpy, strcpy, strlen, ...) are REAL GUEST
//    ARM CODE assembled into libc.so. When NDroid's System Lib Hook Engine
//    models them (Table VI) it hooks the entry point and skips no code —
//    the functions still run — but the instruction tracer does not need to
//    follow their instructions one by one, which is where the speedup comes
//    from (§V-D). With models disabled (ablation / DroidScope-mode), the
//    tracer propagates taint through these loops instruction by instruction
//    and must reach the same answer.
//
//  * Format-string functions (sprintf/fprintf/...), stdio FILE* functions,
//    malloc/free, and all of libm are helper-backed: the paper models these
//    as well, and their bodies are irrelevant to the taint flows studied.
//    libm operates on 32-bit floats (the emulated core has no VFP; the
//    double-named entry points use single precision — documented
//    substitution).
//
// Syscall wrappers (open/read/write/close/socket/connect/send/sendto/recv)
// are guest stubs that trap via SVC, so Table VII's kernel-level sinks are
// observable as guest instructions.
//
// The code pages, helpers and symbols are built once per process
// (build_image, part of android::SystemImage); a Libc binds them and keeps
// only its allocator, FILE* and dynamic-loader state.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "common/symbol_table.h"
#include "os/kernel.h"

namespace ndroid::libc {

/// libc.so/libm.so as built once per process. Libc objects bind it by
/// reference, so it must outlive them.
struct LibcImage {
  SymbolTable::Map symbols;
  GuestAddr file_struct_base = 0;  // FILE structs live at the end of libc.so
};

class Libc {
 public:
  /// Assembles libc.so and registers libm's and libc's helpers on `cpu`.
  static LibcImage build_image(arm::Cpu& cpu, GuestAddr libc_base,
                               u32 libc_size, GuestAddr libm_base,
                               u32 libm_size);

  /// Binds `image` on `cpu`, whose memory already holds libc.so's pages.
  Libc(arm::Cpu& cpu, os::Kernel& kernel, const LibcImage& image);

  /// The Libc bound on `cpu` (how shared helpers find their owner).
  [[nodiscard]] static Libc& of(arm::Cpu& cpu) {
    return cpu.owner<Libc>(arm::HelperOwner::kLibc);
  }

  Libc(const Libc&) = delete;
  Libc& operator=(const Libc&) = delete;

  /// Address of a libc/libm function by name.
  [[nodiscard]] GuestAddr fn(const std::string& name) const;
  [[nodiscard]] const SymbolTable::Map& symbols() const {
    return symbols_.map();
  }

  /// Host-side malloc into the guest native heap (used by JNI glue too).
  GuestAddr malloc_guest(u32 size);
  void free_guest(GuestAddr addr);

  [[nodiscard]] u64 mallocs_performed() const { return mallocs_; }

  /// Kernel fd behind a FILE* handle, or -1 (used by sink hooks to resolve
  /// fprintf/fwrite destinations).
  [[nodiscard]] int fd_of_file(GuestAddr file) const {
    auto it = files_.find(file);
    return it == files_.end() ? -1 : it->second;
  }

  /// Registers a library with the dynamic loader so guest dlopen/dlsym can
  /// resolve it (Table VII hooks dlopen/dlsym/dlclose; malware uses them to
  /// hide program logic in late-loaded libraries, paper §I/§III).
  void register_dl_library(const std::string& name,
                           std::map<std::string, GuestAddr> dl_symbols);

 private:
  struct Builder;
  static void build_asm_string_functions(Builder& b);
  static void build_stdio(Builder& b);
  static void build_libm(Builder& b, GuestAddr libm_base, u32 libm_size);
  static void build_syscall_wrappers(Builder& b);

  static std::string read_format_args(arm::Cpu& c, const std::string& fmt,
                                      u32 first_reg, GuestAddr stack_args);

  arm::Cpu& cpu_;
  os::Kernel& kernel_;
  SymbolTable symbols_;

  // malloc bookkeeping: guest address -> block size; simple size-bucketed
  // free lists over kernel-mmapped arenas.
  std::unordered_map<GuestAddr, u32> block_size_;
  std::unordered_map<u32, std::vector<GuestAddr>> free_lists_;
  u64 mallocs_ = 0;

  // FILE* handles: guest struct of one word holding fd + host map.
  std::unordered_map<GuestAddr, int> files_;
  GuestAddr file_struct_bump_ = 0;

  // Dynamic loader registry: handle (index+1) -> {name, symbols, open}.
  struct DlLibrary {
    std::string name;
    std::map<std::string, GuestAddr> symbols;
    bool open = false;
  };
  std::vector<DlLibrary> dl_libraries_;
};

}  // namespace ndroid::libc
