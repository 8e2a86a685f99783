// The mini Dalvik VM ("libdvm.so").
//
// Owns the class/method registry, the object heap, the indirect reference
// table, the TaintDroid-style interpreted stack, the bytecode interpreter
// with TaintDroid's propagation rules, and — critically for this paper —
// the JNI call bridge machinery:
//
//  * dvmCallJNIMethod (JNI entry, paper Listing 2): Java -> native. A guest
//    stub at a stable libdvm address marshals interleaved (value, taint)
//    args from the DVM stack into AAPCS registers and invokes the native
//    method; NDroid hooks the stub to build SourcePolicy records (§V-B).
//  * dvmCallMethodV/A + dvmInterpret (JNI exit, Table II): native -> Java.
//    Guest stubs whose *guest-level* call chain
//    Call*Method{,V,A} -> dvmCallMethod{V,A} -> dvmInterpret produces the
//    branch events the multilevel hooking conditions T1..T6 match (Fig. 5).
//  * MAF allocation functions (Table III): dvmAllocObject,
//    dvmCreateStringFromCstr/Unicode, dvmAllocArrayByClass,
//    dvmAllocPrimitiveArray — guest stubs returning real object addresses.
//
// Method structs are materialised in guest memory so hook engines can read
// name/shorty/class/flags the way NDroid reads them out of a real libdvm.
//
// libdvm.so itself — stubs, helper table entries, the JNI function table
// the jni layer assembles into it, and its symbols — is built once per
// process (build_image, driven by android::SystemImage, which also carries
// the resulting pages into every Device). A Dvm binds that image: it views
// the shared symbol table and continues the arenas where the image left
// them; the class registry, heap, stack and reference table are its own.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arm/cpu.h"
#include "common/symbol_table.h"
#include "dvm/heap.h"
#include "dvm/method.h"
#include "dvm/stack.h"

namespace ndroid::dvm {

/// TaintDroid behaviour toggles (all on = TaintDroid as shipped; all off =
/// vanilla Android, the overhead baseline for Fig. 10).
struct TaintPolicy {
  /// Propagate taints through DVM bytecode (TaintDroid's core).
  bool propagate_java = true;
  /// "For native methods, Taintdroid taints the returned value of a JNI
  /// function if at least one parameter is tainted" (§IV).
  bool jni_ret_union = true;
};

/// A native->Java call prepared by dvmCallMethod* and consumed by
/// dvmInterpret (its frame is already allocated so hooks can taint it).
struct PendingJavaCall {
  const Method* method = nullptr;
  GuestAddr frame = 0;
  GuestAddr result_addr = 0;  // guest JValue out-slot (0 = discard)
};

/// Guest layout of a materialised Method struct (offsets hook engines use).
struct GuestMethodLayout {
  static constexpr u32 kInsns = 0;         // native entry point
  static constexpr u32 kShorty = 4;        // char* shorty
  static constexpr u32 kName = 8;          // char* name
  static constexpr u32 kClassDesc = 12;    // char* class descriptor
  static constexpr u32 kAccessFlags = 16;
  static constexpr u32 kRegistersSize = 20;
  static constexpr u32 kInsSize = 24;
  static constexpr u32 kSize = 28;
};

/// Where libdvm.so and the Dalvik heap and stack live.
struct DvmLayout {
  GuestAddr libdvm_base = 0;
  u32 libdvm_size = 0;
  GuestAddr heap_base = 0;
  u32 heap_size = 0;
  GuestAddr stack_base = 0;
  u32 stack_size = 0;
};

/// Bump allocators over libdvm.so: code stubs in the first 32 KiB, data
/// (strings, mirrors, method structs, the JNI table) above.
struct LibdvmArena {
  GuestAddr stub_bump = 0;
  GuestAddr stub_end = 0;
  GuestAddr data_bump = 0;
  GuestAddr data_end = 0;

  GuestAddr alloc_stub(mem::AddressSpace& memory, std::span<const u8> code);
  GuestAddr alloc_data(u32 size);
};

/// libdvm.so as built once per process. Dvm objects bind it by reference,
/// so it must outlive them.
struct LibdvmImage {
  DvmLayout layout;
  LibdvmArena arena;
  SymbolTable::Map symbols;
  GuestAddr thread_self = 0;
  GuestAddr string_mirror = 0;  // java.lang.String's class mirror

  /// Build-time: assembles `code` into the stub area and publishes it.
  GuestAddr stub_alloc(mem::AddressSpace& memory, const std::string& name,
                       std::span<const u8> code);
};

class Dvm {
 public:
  /// Assembles libdvm.so's stubs and helpers into `cpu`'s memory, memory
  /// map and helper window, and places the data every Dvm starts with.
  static LibdvmImage build_image(arm::Cpu& cpu, const DvmLayout& layout);

  /// Binds `image` (see the file comment) on `cpu`, whose memory already
  /// holds the image's libdvm.so pages.
  Dvm(arm::Cpu& cpu, const LibdvmImage& image);

  /// The Dvm bound on `cpu` (how shared helpers find their owner).
  [[nodiscard]] static Dvm& of(arm::Cpu& cpu) {
    return cpu.owner<Dvm>(arm::HelperOwner::kDvm);
  }

  Dvm(const Dvm&) = delete;
  Dvm& operator=(const Dvm&) = delete;

  // --- Class and method definition (our "dex loading") -------------------
  ClassObject* define_class(const std::string& descriptor);
  [[nodiscard]] ClassObject* find_class(std::string_view descriptor) const;
  /// jclass handle <-> ClassObject (classes are non-moving guest mirrors).
  [[nodiscard]] ClassObject* class_at(GuestAddr mirror) const;
  [[nodiscard]] GuestAddr class_mirror(const ClassObject* cls) const;

  Method* define_method(ClassObject* cls, std::string name, std::string shorty,
                        u32 access_flags, u16 registers_size,
                        std::vector<DInsn> code);
  Method* define_native(ClassObject* cls, std::string name, std::string shorty,
                        u32 access_flags, GuestAddr native_addr);
  Method* define_builtin(ClassObject* cls, std::string name,
                         std::string shorty, u32 access_flags,
                         std::function<Slot(Dvm&, std::vector<Slot>&)> fn);
  /// jmethodID (guest Method struct address) -> host Method.
  [[nodiscard]] Method* method_at(GuestAddr guest_method) const;

  /// Every registered native method, in definition order. The static
  /// pre-analysis layer lifts CFGs from exactly these JNI entry points —
  /// the same registration source dvmCallJNIMethod dispatches through.
  [[nodiscard]] std::vector<const Method*> native_methods() const;

  /// jfieldID: materialises a guest field-id struct on first use.
  GuestAddr field_id(ClassObject* cls, std::string_view name, bool is_static);
  struct FieldRef {
    ClassObject* cls = nullptr;
    const Field* field = nullptr;
    bool is_static = false;
  };
  [[nodiscard]] FieldRef decode_field_id(GuestAddr fid) const;

  // --- Components ---------------------------------------------------------
  Heap& heap() { return heap_; }
  IndirectRefTable& irt() { return irt_; }
  DvmStack& stack() { return stack_; }
  arm::Cpu& cpu() { return cpu_; }
  mem::AddressSpace& memory() { return cpu_.memory(); }
  TaintPolicy& policy() { return policy_; }

  Object* new_string(std::string utf) {
    return heap_.new_string(string_class_, std::move(utf));
  }
  [[nodiscard]] ClassObject* string_class() const { return string_class_; }

  // --- Execution -----------------------------------------------------------
  /// Calls a method from the host (app entry points, tests). Interpreted and
  /// builtin methods run directly; native methods go through the guest
  /// dvmCallJNIMethod stub so all hook surfaces fire.
  Slot call(const Method& method, std::vector<Slot> args);

  /// InterpSaveState: return value + taint of the last completed method.
  Slot& retval() { return retval_; }

  /// Pending exception (set by ThrowNew, cleared by kMoveException).
  Object* pending_exception = nullptr;

  // --- JNI-exit path (used by the JNIEnv stubs in src/jni) ----------------
  /// Address of the dvmCallMethodV or dvmCallMethodA stub.
  [[nodiscard]] GuestAddr call_method_stub(char kind) const;

  // --- Symbols (libdvm exports, for hook engines) --------------------------
  [[nodiscard]] GuestAddr sym(const std::string& name) const;
  [[nodiscard]] const SymbolTable::Map& symbols() const {
    return symbols_.map();
  }

  // --- Guest data area (strings, scratch, JValues) -------------------------
  GuestAddr data_alloc(u32 size);
  GuestAddr data_cstr(std::string_view s);

  /// Code space inside the libdvm.so region for additional guest stubs (the
  /// JNIEnv function table in src/jni assembles into this — those functions
  /// are part of libdvm on real Android). Registers `name` as a symbol.
  GuestAddr stub_alloc(const std::string& name, std::span<const u8> code);

  /// Guest address the JNI functions pass as JNIEnv* (set by jni module).
  void set_jnienv_addr(GuestAddr addr) { jnienv_addr_ = addr; }
  [[nodiscard]] GuestAddr jnienv_addr() const { return jnienv_addr_; }

  // --- Instrumentation / stats ---------------------------------------------
  /// Per-bytecode observer (used to model DroidScope's DVM-reconstruction
  /// cost and for tracing).
  void set_dvm_insn_observer(std::function<void(const Method&, const DInsn&)> fn) {
    insn_observer_ = std::move(fn);
  }
  [[nodiscard]] u64 bytecodes_executed() const { return bytecodes_executed_; }

  /// Runs the semi-space copying GC (every object moves; IRT handles stay
  /// valid, stale direct pointers do not).
  u32 run_gc() { return heap_.gc(); }

 private:
  friend class Interpreter;

  ClassObject* register_class(const std::string& descriptor,
                              GuestAddr mirror);
  GuestAddr materialise_method(Method& m);
  void register_method(ClassObject* cls, std::unique_ptr<Method> m);

  /// Interprets `method` whose frame is already set up at `fp`.
  void interpret(const Method& method, GuestAddr fp);

  /// Java -> native through the guest bridge stub.
  Slot invoke_native(const Method& method, const std::vector<Slot>& args);

  // Helper bodies (C++ behind guest stub addresses).
  void helper_call_jni_method(arm::Cpu& cpu);
  void helper_call_method_prepare(arm::Cpu& cpu, char kind);
  void helper_interpret(arm::Cpu& cpu);
  void helper_call_method_finish(arm::Cpu& cpu);

  arm::Cpu& cpu_;
  Heap heap_;
  IndirectRefTable irt_;
  DvmStack stack_;
  TaintPolicy policy_;
  /// Host recursion depth of interpret(): the guest DvmStack guard alone
  /// fires too late for small frames, since each nested interpreted invoke
  /// is also a host stack frame.
  u32 interp_depth_ = 0;

  std::map<std::string, std::unique_ptr<ClassObject>> classes_;
  std::map<GuestAddr, ClassObject*> class_by_mirror_;
  std::map<const ClassObject*, GuestAddr> mirror_by_class_;
  std::map<GuestAddr, Method*> method_by_guest_;
  std::map<GuestAddr, FieldRef> field_ids_;
  std::map<std::string, GuestAddr> field_id_cache_;

  SymbolTable symbols_;
  LibdvmArena arena_;
  GuestAddr jnienv_addr_ = 0;
  GuestAddr thread_self_addr_ = 0;
  GuestAddr jvalue_scratch_ = 0;

  ClassObject* string_class_ = nullptr;

  Slot retval_{};
  std::vector<PendingJavaCall> pending_calls_;

  std::function<void(const Method&, const DInsn&)> insn_observer_;
  u64 bytecodes_executed_ = 0;
};

}  // namespace ndroid::dvm
