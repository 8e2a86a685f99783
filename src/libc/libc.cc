#include "libc/libc.h"

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "arm/assembler.h"

namespace ndroid::libc {

using arm::Assembler;
using arm::Cond;
using arm::IP;
using arm::Label;
using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;

Libc::Libc(arm::Cpu& cpu, os::Kernel& kernel, const LibcImage& image)
    : cpu_(cpu),
      kernel_(kernel),
      symbols_(image.symbols),
      file_struct_bump_(image.file_struct_base) {
  cpu_.set_owner(arm::HelperOwner::kLibc, this);
}

GuestAddr Libc::fn(const std::string& name) const {
  const GuestAddr addr = symbols_.find(name);
  if (addr == 0) throw GuestFault("no libc symbol: " + name);
  return addr;
}

/// Build-time state: code assembles into libc.so; helpers are shared by
/// every Device and find their Libc through the Cpu they run on (of()).
struct Libc::Builder {
  arm::Cpu& cpu;
  LibcImage& image;
  GuestAddr code_bump = 0;
  GuestAddr code_end = 0;

  GuestAddr add_asm(const std::string& name,
                    const std::function<void(Assembler&)>& body) {
    Assembler a(code_bump);
    body(a);
    const auto code = a.finish();
    if (code_bump + code.size() > code_end) {
      throw GuestFault("libc code space exhausted");
    }
    cpu.memory().write_bytes(code_bump, code);
    const GuestAddr addr = code_bump;
    code_bump += (static_cast<u32>(code.size()) + 3) & ~3u;
    image.symbols[name] = addr;
    return addr;
  }
  GuestAddr add_helper(const std::string& name, arm::Helper helper) {
    const GuestAddr addr = cpu.register_helper_auto(std::move(helper));
    image.symbols[name] = addr;
    return addr;
  }
};

LibcImage Libc::build_image(arm::Cpu& cpu, GuestAddr libc_base,
                            u32 libc_size, GuestAddr libm_base,
                            u32 libm_size) {
  LibcImage image;
  cpu.memmap().add("libc.so", libc_base, libc_size, mem::kRX);
  // Code grows up from the base; FILE structs take the last 2 KiB.
  image.file_struct_base = libc_base + libc_size - 0x800;
  Builder b{cpu, image, libc_base, image.file_struct_base};
  build_asm_string_functions(b);
  build_stdio(b);
  build_syscall_wrappers(b);
  build_libm(b, libm_base, libm_size);
  return image;
}

// ---------------------------------------------------------------------------
// malloc / free (helper-backed)
// ---------------------------------------------------------------------------

GuestAddr Libc::malloc_guest(u32 size) {
  ++mallocs_;
  const u32 rounded = std::max<u32>((size + 15) & ~15u, 16);
  auto& bucket = free_lists_[rounded];
  GuestAddr addr;
  if (!bucket.empty()) {
    addr = bucket.back();
    bucket.pop_back();
  } else {
    addr = kernel_.mmap_anonymous(rounded);
  }
  block_size_[addr] = rounded;
  return addr;
}

void Libc::free_guest(GuestAddr addr) {
  if (addr == 0) return;
  auto it = block_size_.find(addr);
  if (it == block_size_.end()) return;  // foreign pointer: ignore, like bionic won't
  free_lists_[it->second].push_back(addr);
  block_size_.erase(it);
}

// ---------------------------------------------------------------------------
// String/memory functions in genuine guest assembly
// ---------------------------------------------------------------------------

void Libc::build_asm_string_functions(Builder& b) {
  // void* memcpy(dst, src, n) — byte loop, returns dst.
  b.add_asm("memcpy", [](Assembler& a) {
    Label loop, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  });

  // void* memmove(dst, src, n) — picks direction for overlap.
  b.add_asm("memmove", [](Assembler& a) {
    Label fwd, fwd_loop, bwd_loop, done;
    a.cmp(R(0), R(1));
    a.b(fwd, Cond::kLS);  // dst <= src: forward copy
    // dst > src: copy backward from the end.
    a.add(R(3), R(0), R(2));  // dst end
    a.add(R(1), R(1), R(2));  // src end
    a.bind(bwd_loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_pre(IP, R(1), -1);
    a.strb_pre(IP, R(3), -1);
    a.sub_imm(R(2), R(2), 1);
    a.b(bwd_loop);
    a.bind(fwd);
    a.mov(R(3), R(0));
    a.bind(fwd_loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(fwd_loop);
    a.bind(done);
    a.ret();
  });

  // void* memset(s, c, n) — returns s.
  b.add_asm("memset", [](Assembler& a) {
    Label loop, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.strb_post(R(1), R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  });

  // size_t strlen(s)
  b.add_asm("strlen", [](Assembler& a) {
    Label loop, done;
    a.mov(R(1), R(0));
    a.bind(loop);
    a.ldrb_post(IP, R(1), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    a.sub(R(0), R(1), R(0));
    a.sub_imm(R(0), R(0), 1);
    a.ret();
    a.bind(done);
  });

  // char* strcpy(dst, src) — returns dst.
  b.add_asm("strcpy", [](Assembler& a) {
    Label loop;
    a.mov(R(2), R(0));
    a.bind(loop);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    a.ret();
  });

  // char* strncpy(dst, src, n)
  b.add_asm("strncpy", [](Assembler& a) {
    Label loop, pad, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    // pad remaining with zeros
    a.mov_imm(IP, 0);
    a.bind(pad);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(pad);
    a.bind(done);
    a.ret();
  });

  // int strcmp(a, b)
  b.add_asm("strcmp", [](Assembler& a) {
    Label loop, diff;
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.ldrb_post(R(3), R(1), 1);
    a.cmp(R(2), R(3));
    a.b(diff, Cond::kNE);
    a.cmp_imm(R(2), 0);
    a.b(loop, Cond::kNE);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(2), R(3));
    a.ret();
  });

  // int strncmp(a, b, n)
  b.add_asm("strncmp", [](Assembler& a) {
    Label loop, diff, zero;
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(zero, Cond::kEQ);
    a.ldrb_post(R(3), R(0), 1);
    a.ldrb_post(IP, R(1), 1);
    a.cmp(R(3), IP);
    a.b(diff, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.cmp_imm(R(3), 0);
    a.b(loop, Cond::kNE);
    a.bind(zero);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(3), IP);
    a.ret();
  });

  // int memcmp(a, b, n)
  b.add_asm("memcmp", [](Assembler& a) {
    Label loop, diff, zero;
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(zero, Cond::kEQ);
    a.ldrb_post(R(3), R(0), 1);
    a.ldrb_post(IP, R(1), 1);
    a.cmp(R(3), IP);
    a.b(diff, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(zero);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(3), IP);
    a.ret();
  });

  // char* strcat(dst, src)
  b.add_asm("strcat", [](Assembler& a) {
    Label seek, copy;
    a.mov(R(2), R(0));
    a.bind(seek);  // find NUL of dst
    a.ldrb(IP, R(2), 0);
    a.cmp_imm(IP, 0);
    a.add_imm(R(2), R(2), 1);
    a.b(seek, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.bind(copy);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(copy, Cond::kNE);
    a.ret();
  });

  // char* strchr(s, c)
  b.add_asm("strchr", [](Assembler& a) {
    Label loop, found, nope;
    a.and_imm(R(1), R(1), 0xFF);
    a.bind(loop);
    a.ldrb(R(2), R(0), 0);
    a.cmp(R(2), R(1));
    a.b(found, Cond::kEQ);
    a.cmp_imm(R(2), 0);
    a.b(nope, Cond::kEQ);
    a.add_imm(R(0), R(0), 1);
    a.b(loop);
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.bind(found);
    a.ret();
  });

  // char* strrchr(s, c)
  b.add_asm("strrchr", [](Assembler& a) {
    Label loop, skip;
    a.and_imm(R(1), R(1), 0xFF);
    a.mov_imm(R(3), 0);  // last match
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.cmp(R(2), R(1));
    a.b(skip, Cond::kNE);
    a.sub_imm(R(3), R(0), 1);  // record match position
    a.bind(skip);
    a.cmp_imm(R(2), 0);
    a.b(loop, Cond::kNE);
    a.mov(R(0), R(3));
    a.ret();
  });

  // void* memchr(s, c, n)
  b.add_asm("memchr", [](Assembler& a) {
    Label loop, found, nope;
    a.and_imm(R(1), R(1), 0xFF);
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(nope, Cond::kEQ);
    a.ldrb(R(3), R(0), 0);
    a.cmp(R(3), R(1));
    a.b(found, Cond::kEQ);
    a.add_imm(R(0), R(0), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.bind(found);
    a.ret();
  });

  // int atoi(s) — optional minus sign, decimal digits.
  b.add_asm("atoi", [](Assembler& a) {
    Label loop, done, negate, no_sign;
    a.mov_imm(R(1), 0);   // acc
    a.mov_imm(R(3), 0);   // negative flag
    a.ldrb(R(2), R(0), 0);
    a.cmp_imm(R(2), '-');
    a.b(no_sign, Cond::kNE);
    a.mov_imm(R(3), 1);
    a.add_imm(R(0), R(0), 1);
    a.bind(no_sign);
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.sub_imm(R(2), R(2), '0', /*s=*/true);
    a.b(done, Cond::kMI);         // below '0'
    a.cmp_imm(R(2), 9);
    a.b(done, Cond::kGT);
    a.mov_imm(IP, 10);
    a.mla(R(1), R(1), IP, R(2));  // acc = acc*10 + digit
    a.b(loop);
    a.bind(done);
    a.cmp_imm(R(3), 0);
    a.b(negate, Cond::kNE);
    a.mov(R(0), R(1));
    a.ret();
    a.bind(negate);
    a.mov_imm(R(0), 0);
    a.sub(R(0), R(0), R(1));
    a.ret();
  });

  // char* strstr(h, n) — naive quadratic search.
  b.add_asm("strstr", [](Assembler& a) {
    Label outer, inner, found, nope, advance;
    a.push({R(4), LR});
    a.bind(outer);
    a.mov(R(2), R(0));  // h cursor
    a.mov(R(3), R(1));  // n cursor
    a.bind(inner);
    a.ldrb_post(IP, R(3), 1);
    a.cmp_imm(IP, 0);
    a.b(found, Cond::kEQ);  // needle exhausted -> match at r0
    a.ldrb_post(R(4), R(2), 1);
    a.cmp(R(4), IP);
    a.b(inner, Cond::kEQ);
    // Mismatch: if the haystack is exhausted at r0, give up.
    a.ldrb(R(4), R(0), 0);
    a.cmp_imm(R(4), 0);
    a.b(nope, Cond::kEQ);
    a.bind(advance);
    a.add_imm(R(0), R(0), 1);
    a.b(outer);
    a.bind(found);
    a.pop({R(4), PC});
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.pop({R(4), PC});
  });

  // char* strdup(s): malloc(strlen(s)+1) + strcpy.
  b.add_helper("strdup", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    const GuestAddr copy = of(c).malloc_guest(static_cast<u32>(s.size()) + 1);
    c.memory().write_cstr(copy, s);
    c.state().regs[0] = copy;
  });

  b.add_helper("strcasecmp", [](arm::Cpu& c) {
    std::string a = c.memory().read_cstr(c.state().regs[0]);
    std::string b = c.memory().read_cstr(c.state().regs[1]);
    for (char& ch : a) ch = static_cast<char>(std::tolower(ch));
    for (char& ch : b) ch = static_cast<char>(std::tolower(ch));
    c.state().regs[0] = static_cast<u32>(a.compare(b));
  });
  b.add_helper("strncasecmp", [](arm::Cpu& c) {
    const u32 n = c.state().regs[2];
    std::string a = c.memory().read_cstr(c.state().regs[0]).substr(0, n);
    std::string b = c.memory().read_cstr(c.state().regs[1]).substr(0, n);
    for (char& ch : a) ch = static_cast<char>(std::tolower(ch));
    for (char& ch : b) ch = static_cast<char>(std::tolower(ch));
    c.state().regs[0] = static_cast<u32>(a.compare(b));
  });
  b.add_helper("strtoul", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(
        std::strtoul(s.c_str(), nullptr, static_cast<int>(c.state().regs[2])));
  });
  b.add_helper("atol", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(std::atol(s.c_str()));
  });
  b.add_helper("sysconf", [](arm::Cpu& c) { c.state().regs[0] = 4096; });

  // Allocation family.
  b.add_helper("malloc", [](arm::Cpu& c) {
    c.state().regs[0] = of(c).malloc_guest(c.state().regs[0]);
  });
  b.add_helper("free",
               [](arm::Cpu& c) { of(c).free_guest(c.state().regs[0]); });
  b.add_helper("calloc", [](arm::Cpu& c) {
    const u32 bytes = c.state().regs[0] * c.state().regs[1];
    const GuestAddr p = of(c).malloc_guest(bytes);
    c.memory().fill(p, 0, bytes);
    c.state().regs[0] = p;
  });
  b.add_helper("realloc", [](arm::Cpu& c) {
    Libc& self = of(c);
    const GuestAddr old = c.state().regs[0];
    const u32 size = c.state().regs[1];
    const GuestAddr p = self.malloc_guest(size);
    if (old != 0) {
      auto it = self.block_size_.find(old);
      const u32 old_size = it == self.block_size_.end() ? 0 : it->second;
      c.memory().copy(p, old, std::min(old_size, size));
      self.free_guest(old);
    }
    c.state().regs[0] = p;
  });
}

// ---------------------------------------------------------------------------
// Dynamic loader (dlopen/dlsym/dlclose, Table VII)
// ---------------------------------------------------------------------------

void Libc::register_dl_library(const std::string& name,
                               std::map<std::string, GuestAddr> dl_symbols) {
  // First registration also installs the guest-visible entry points.
  // These helpers belong to this Device alone (registered above the shared
  // table), so they may capture it.
  auto add_helper = [this](const std::string& fn_name, arm::Helper helper) {
    symbols_.set(fn_name, cpu_.register_helper_auto(std::move(helper)));
  };
  if (dl_libraries_.empty() && !symbols_.contains("dlopen")) {
    add_helper("dlopen", [this](arm::Cpu& c) {
      const std::string wanted = c.memory().read_cstr(c.state().regs[0]);
      for (u32 i = 0; i < dl_libraries_.size(); ++i) {
        if (dl_libraries_[i].name == wanted) {
          dl_libraries_[i].open = true;
          c.state().regs[0] = i + 1;
          return;
        }
      }
      c.state().regs[0] = 0;
    });
    add_helper("dlsym", [this](arm::Cpu& c) {
      const u32 handle = c.state().regs[0];
      c.state().regs[0] = 0;
      if (handle == 0 || handle > dl_libraries_.size()) return;
      const DlLibrary& lib = dl_libraries_[handle - 1];
      if (!lib.open) return;
      const std::string sym = c.memory().read_cstr(c.state().regs[1]);
      auto it = lib.symbols.find(sym);
      if (it != lib.symbols.end()) c.state().regs[0] = it->second;
    });
    add_helper("dlclose", [this](arm::Cpu& c) {
      const u32 handle = c.state().regs[0];
      if (handle != 0 && handle <= dl_libraries_.size()) {
        dl_libraries_[handle - 1].open = false;
      }
      c.state().regs[0] = 0;
    });
  }
  dl_libraries_.push_back(DlLibrary{name, std::move(dl_symbols), false});
}

// ---------------------------------------------------------------------------
// Format-string helpers
// ---------------------------------------------------------------------------

std::string Libc::read_format_args(arm::Cpu& c, const std::string& fmt,
                                   u32 first_reg, GuestAddr stack_args) {
  std::string out;
  u32 reg = first_reg;
  u32 stack_idx = 0;
  auto next_arg = [&]() -> u32 {
    if (reg <= 3) return c.state().regs[reg++];
    return c.memory().read32(stack_args + 4 * stack_idx++);
  };
  for (u32 i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i]);
      continue;
    }
    if (i + 1 >= fmt.size()) break;
    const char spec = fmt[++i];
    switch (spec) {
      case 's': {
        const u32 p = next_arg();
        out += p == 0 ? "(null)" : c.memory().read_cstr(p);
        break;
      }
      case 'd':
        out += std::to_string(static_cast<i32>(next_arg()));
        break;
      case 'u':
        out += std::to_string(next_arg());
        break;
      case 'x': {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%x", next_arg());
        out += buf;
        break;
      }
      case 'c':
        out.push_back(static_cast<char>(next_arg()));
        break;
      case '%':
        out.push_back('%');
        break;
      default:
        out.push_back('%');
        out.push_back(spec);
        break;
    }
  }
  return out;
}

void Libc::build_stdio(Builder& b) {
  // FILE* fopen(path, mode)
  b.add_helper("fopen", [](arm::Cpu& c) {
    Libc& self = of(c);
    const std::string path = c.memory().read_cstr(c.state().regs[0]);
    const std::string mode = c.memory().read_cstr(c.state().regs[1]);
    u32 flags = os::kOpenRead;
    if (mode.find('w') != std::string::npos) flags = os::kOpenWrite;
    if (mode.find('a') != std::string::npos) flags = os::kOpenAppend;
    const int fd = self.kernel_.open_file(path, flags);
    if (fd < 0) {
      c.state().regs[0] = 0;
      return;
    }
    const GuestAddr file = self.file_struct_bump_;
    self.file_struct_bump_ += 8;
    c.memory().write32(file, static_cast<u32>(fd));
    self.files_[file] = fd;
    c.state().regs[0] = file;
  });

  b.add_helper("fclose", [](arm::Cpu& c) {
    Libc& self = of(c);
    auto it = self.files_.find(c.state().regs[0]);
    if (it != self.files_.end()) {
      self.kernel_.close_fd(it->second);
      self.files_.erase(it);
    }
    c.state().regs[0] = 0;
  });

  // size_t fwrite(buf, size, count, FILE*)
  b.add_helper("fwrite", [](arm::Cpu& c) {
    Libc& self = of(c);
    const GuestAddr buf = c.state().regs[0];
    const u32 bytes = c.state().regs[1] * c.state().regs[2];
    auto it = self.files_.find(c.state().regs[3]);
    if (it == self.files_.end()) {
      c.state().regs[0] = 0;
      return;
    }
    std::vector<u8> data(bytes);
    c.memory().read_bytes(buf, data);
    self.kernel_.write_fd(it->second, data);
    c.state().regs[0] = c.state().regs[2];
  });

  // size_t fread(buf, size, count, FILE*)
  b.add_helper("fread", [](arm::Cpu& c) {
    Libc& self = of(c);
    const GuestAddr buf = c.state().regs[0];
    const u32 bytes = c.state().regs[1] * c.state().regs[2];
    auto it = self.files_.find(c.state().regs[3]);
    if (it == self.files_.end()) {
      c.state().regs[0] = 0;
      return;
    }
    std::vector<u8> data(bytes);
    const u32 n = self.kernel_.read_fd(it->second, data);
    c.memory().write_bytes(buf, std::span<const u8>(data.data(), n));
    c.state().regs[0] = c.state().regs[1] ? n / c.state().regs[1] : 0;
  });

  // int fputc(c, FILE*)
  b.add_helper("fputc", [](arm::Cpu& c) {
    Libc& self = of(c);
    auto it = self.files_.find(c.state().regs[1]);
    if (it != self.files_.end()) {
      const u8 ch = static_cast<u8>(c.state().regs[0]);
      self.kernel_.write_fd(it->second, std::span<const u8>(&ch, 1));
    }
    // returns the char
  });

  // int fputs(s, FILE*)
  b.add_helper("fputs", [](arm::Cpu& c) {
    Libc& self = of(c);
    auto it = self.files_.find(c.state().regs[1]);
    if (it != self.files_.end()) {
      const std::string s = c.memory().read_cstr(c.state().regs[0]);
      self.kernel_.write_fd(
          it->second, {reinterpret_cast<const u8*>(s.data()), s.size()});
    }
    c.state().regs[0] = 0;
  });

  // char* fgets(buf, n, FILE*)
  b.add_helper("fgets", [](arm::Cpu& c) {
    Libc& self = of(c);
    auto it = self.files_.find(c.state().regs[2]);
    const GuestAddr buf = c.state().regs[0];
    const u32 n = c.state().regs[1];
    if (it == self.files_.end() || n == 0) {
      c.state().regs[0] = 0;
      return;
    }
    std::string line;
    u8 ch = 0;
    while (line.size() + 1 < n &&
           self.kernel_.read_fd(it->second, std::span<u8>(&ch, 1)) == 1) {
      line.push_back(static_cast<char>(ch));
      if (ch == '\n') break;
    }
    if (line.empty()) {
      c.state().regs[0] = 0;
      return;
    }
    c.memory().write_cstr(buf, line);
    c.state().regs[0] = buf;
  });

  // int fprintf(FILE*, fmt, ...) — varargs from r2, r3, then stack.
  b.add_helper("fprintf", [](arm::Cpu& c) {
    Libc& self = of(c);
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    const std::string out = read_format_args(c, fmt, 2, c.state().sp());
    auto it = self.files_.find(c.state().regs[0]);
    if (it != self.files_.end()) {
      self.kernel_.write_fd(
          it->second, {reinterpret_cast<const u8*>(out.data()), out.size()});
    }
    c.state().regs[0] = static_cast<u32>(out.size());
  });

  // int sprintf(buf, fmt, ...)
  b.add_helper("sprintf", [](arm::Cpu& c) {
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    const std::string out = read_format_args(c, fmt, 2, c.state().sp());
    c.memory().write_cstr(c.state().regs[0], out);
    c.state().regs[0] = static_cast<u32>(out.size());
  });

  // int snprintf(buf, n, fmt, ...)
  b.add_helper("snprintf", [](arm::Cpu& c) {
    const std::string fmt = c.memory().read_cstr(c.state().regs[2]);
    std::string out = read_format_args(c, fmt, 3, c.state().sp());
    const u32 n = c.state().regs[1];
    const u32 full = static_cast<u32>(out.size());
    if (n > 0) {
      if (out.size() >= n) out.resize(n - 1);
      c.memory().write_cstr(c.state().regs[0], out);
    }
    c.state().regs[0] = full;
  });
  b.image.symbols["vsnprintf"] = b.image.symbols["snprintf"];
  b.image.symbols["vsprintf"] = b.image.symbols["sprintf"];
  b.image.symbols["vfprintf"] = b.image.symbols["fprintf"];

  // int sscanf(s, fmt, ...) — supports %d and %s, enough for workloads.
  b.add_helper("sscanf", [](arm::Cpu& c) {
    const std::string input = c.memory().read_cstr(c.state().regs[0]);
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    u32 reg = 2, stack_idx = 0, matched = 0;
    auto next_out = [&]() -> GuestAddr {
      if (reg <= 3) return c.state().regs[reg++];
      return c.memory().read32(c.state().sp() + 4 * stack_idx++);
    };
    std::size_t pos = 0;
    for (u32 i = 0; i < fmt.size(); ++i) {
      if (fmt[i] == '%' && i + 1 < fmt.size()) {
        while (pos < input.size() && std::isspace(input[pos])) ++pos;
        const char spec = fmt[++i];
        if (spec == 'd') {
          std::size_t end = pos;
          if (end < input.size() && (input[end] == '-')) ++end;
          while (end < input.size() && std::isdigit(input[end])) ++end;
          if (end == pos) break;
          c.memory().write32(next_out(),
                             static_cast<u32>(std::stoi(input.substr(pos))));
          pos = end;
          ++matched;
        } else if (spec == 's') {
          std::size_t end = pos;
          while (end < input.size() && !std::isspace(input[end])) ++end;
          if (end == pos) break;
          c.memory().write_cstr(next_out(), input.substr(pos, end - pos));
          pos = end;
          ++matched;
        }
      }
    }
    c.state().regs[0] = matched;
  });
}

// ---------------------------------------------------------------------------
// libm (helper-modeled soft float, 32-bit)
// ---------------------------------------------------------------------------

void Libc::build_libm(Builder& b, GuestAddr libm_base, u32 libm_size) {
  b.cpu.memmap().add("libm.so", libm_base, libm_size, mem::kRX);

  auto unary = [&b](const std::string& name, float (*fn)(float)) {
    b.add_helper(name, [fn](arm::Cpu& c) {
      const float x = std::bit_cast<float>(c.state().regs[0]);
      c.state().regs[0] = std::bit_cast<u32>(fn(x));
    });
  };
  auto binary = [&b](const std::string& name, float (*fn)(float, float)) {
    b.add_helper(name, [fn](arm::Cpu& c) {
      const float x = std::bit_cast<float>(c.state().regs[0]);
      const float y = std::bit_cast<float>(c.state().regs[1]);
      c.state().regs[0] = std::bit_cast<u32>(fn(x, y));
    });
  };

  // Both the double-named and the f-suffixed entry points exist; all use
  // single precision on this core (no VFP — documented substitution).
  for (const char* n : {"sin", "sinf"}) unary(n, [](float x) { return std::sin(x); });
  for (const char* n : {"cos", "cosf"}) unary(n, [](float x) { return std::cos(x); });
  for (const char* n : {"sqrt", "sqrtf"}) unary(n, [](float x) { return std::sqrt(x); });
  for (const char* n : {"exp", "expf"}) unary(n, [](float x) { return std::exp(x); });
  for (const char* n : {"log", "logf"}) unary(n, [](float x) { return std::log(x); });
  unary("log10", [](float x) { return std::log10(x); });
  unary("floor", [](float x) { return std::floor(x); });
  unary("ceil", [](float x) { return std::ceil(x); });
  unary("tan", [](float x) { return std::tan(x); });
  unary("atan", [](float x) { return std::atan(x); });
  unary("asin", [](float x) { return std::asin(x); });
  unary("acos", [](float x) { return std::acos(x); });
  unary("sinh", [](float x) { return std::sinh(x); });
  unary("cosh", [](float x) { return std::cosh(x); });
  for (const char* n : {"pow", "powf"}) binary(n, [](float x, float y) { return std::pow(x, y); });
  for (const char* n : {"atan2", "atan2f"}) binary(n, [](float x, float y) { return std::atan2(x, y); });
  binary("fmod", [](float x, float y) { return std::fmod(x, y); });
  binary("ldexp", [](float x, float y) { return std::ldexp(x, static_cast<int>(y)); });
  b.add_helper("strtod", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = std::bit_cast<u32>(std::strtof(s.c_str(), nullptr));
  });
  b.add_helper("strtol", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(
        std::strtol(s.c_str(), nullptr, static_cast<int>(c.state().regs[2])));
  });
}

// ---------------------------------------------------------------------------
// Syscall wrappers (guest SVC stubs)
// ---------------------------------------------------------------------------

void Libc::build_syscall_wrappers(Builder& b) {
  auto wrapper = [&b](const std::string& name, os::Sys number) {
    b.add_asm(name, [number](Assembler& a) {
      a.push({R(7), LR});
      a.mov_imm32(R(7), static_cast<u32>(number));
      a.svc(0);
      a.pop({R(7), PC});
    });
  };
  wrapper("open", os::Sys::kOpen);
  wrapper("read", os::Sys::kRead);
  wrapper("write", os::Sys::kWrite);
  wrapper("close", os::Sys::kClose);
  wrapper("unlink", os::Sys::kUnlink);
  wrapper("socket", os::Sys::kSocket);
  wrapper("connect", os::Sys::kConnect);
  wrapper("send", os::Sys::kSend);
  wrapper("recv", os::Sys::kRecv);
  wrapper("mkdir", os::Sys::kMkdir);
  wrapper("getpid", os::Sys::kGetpid);
  wrapper("mmap", os::Sys::kMmap);
  wrapper("munmap", os::Sys::kMunmap);

  // sendto(fd, buf, n, host, port) — 5 args, 5th on stack; the wrapper loads
  // it into r4 position expected by the kernel ABI (args[4]).
  b.add_asm("sendto", [](Assembler& a) {
    a.push({R(4), R(7), LR});
    a.ldr(R(4), SP, 12);  // 5th arg (port) above the saved regs
    a.mov_imm32(R(7), static_cast<u32>(os::Sys::kSendto));
    a.svc(0);
    a.pop({R(4), R(7), PC});
  });
}

}  // namespace ndroid::libc
