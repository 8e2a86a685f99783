#include "jni/jnienv.h"

#include <algorithm>
#include <type_traits>

#include "arm/assembler.h"

namespace ndroid::jni {

using arm::Assembler;
using arm::LR;
using arm::PC;
using arm::R;
using dvm::Object;

JniEnv::JniEnv(dvm::Dvm& dvm, const JniImage& image)
    : dvm_(dvm), image_(image) {
  dvm_.set_jnienv_addr(image_.env_addr);
}

GuestAddr JniEnv::fn(const std::string& name) const {
  auto it = image_.symbols.find(name);
  if (it == image_.symbols.end()) throw GuestFault("no JNI function: " + name);
  return it->second;
}

GuestAddr JniEnv::fn(JniFn index) const {
  return dvm_.memory().read32(image_.table_addr +
                              4 * static_cast<u32>(index));
}

namespace {

Object* decode_or_null(dvm::Dvm& dvm, u32 iref) {
  return iref == 0 ? nullptr : dvm.irt().decode(iref);
}

u32 to_local_ref(dvm::Dvm& dvm, u32 real_addr) {
  if (real_addr == 0) return 0;
  Object* obj = dvm.heap().object_at(real_addr);
  if (obj == nullptr) throw GuestFault("to_local_ref: not an object address");
  return dvm.irt().add(obj);
}

GuestAddr guest_mmap(arm::Cpu& c, u32 len) {
  return os::Kernel::of(c).mmap_anonymous(len);
}

/// Build-time state: the table and its functions assemble into libdvm.so
/// (they are part of libdvm on real Android). Helpers are shared by every
/// Device, so they find their Dvm and Kernel through the Cpu they run on.
struct Builder {
  arm::Cpu& cpu_;
  dvm::LibdvmImage& libdvm_;
  JniImage& image_;

  /// Registers a shared helper; `fn` may take the running Device's Dvm.
  template <class F>
  GuestAddr register_helper(F fn) {
    if constexpr (std::is_invocable_v<F, dvm::Dvm&, arm::Cpu&>) {
      return cpu_.register_helper_auto(
          [fn](arm::Cpu& c) { fn(dvm::Dvm::of(c), c); });
    } else {
      return cpu_.register_helper_auto(fn);
    }
  }
  template <class F>
  GuestAddr add_helper_fn(const std::string& name, JniFn index, F helper) {
    // Helper-backed functions still get a one-instruction guest landing pad
    // inside libdvm.so so their addresses look like library code; the pad
    // tail-calls the helper.
    const GuestAddr haddr = register_helper(helper);
    Assembler a(0);
    a.push({LR});
    a.call(haddr);
    a.pop({PC});
    const auto code = a.finish();
    const GuestAddr addr = stub_alloc(name, code);
    publish(name, index, addr);
    return addr;
  }
  void publish(const std::string& name, JniFn index, GuestAddr addr) {
    image_.symbols[name] = addr;
    cpu_.memory().write32(image_.table_addr + 4 * static_cast<u32>(index),
                          addr);
  }
  GuestAddr stub_alloc(const std::string& name, std::span<const u8> code) {
    return libdvm_.stub_alloc(cpu_.memory(), name, code);
  }
  GuestAddr sym(const std::string& name) const {
    return libdvm_.symbols.at(name);
  }
  void build_accessors();
  void build_call_method_family();
  void build_object_creation();
  void build_throw_new();
};

void Builder::build_accessors() {

  // --- Class / method / field resolution ---------------------------------
  add_helper_fn("FindClass", JniFn::kFindClass, [](arm::Cpu& c) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    const std::string desc = c.memory().read_cstr(c.state().regs[1]);
    // JNI accepts both "java/lang/String" and "Ljava/lang/String;".
    std::string norm = desc;
    if (!norm.empty() && norm.front() != 'L' && norm.front() != '[') {
      norm = "L" + norm + ";";
    }
    dvm::ClassObject* cls = dvm.find_class(norm);
    c.state().regs[0] = cls ? dvm.class_mirror(cls) : 0;
  });

  auto method_id_helper = [](dvm::Dvm& dvm, arm::Cpu& c) {
    dvm::ClassObject* cls = dvm.class_at(c.state().regs[1]);
    const std::string name = c.memory().read_cstr(c.state().regs[2]);
    dvm::Method* m = cls->find_method(name);
    c.state().regs[0] = m ? m->guest_addr : 0;
  };
  add_helper_fn("GetMethodID", JniFn::kGetMethodID, method_id_helper);
  add_helper_fn("GetStaticMethodID", JniFn::kGetStaticMethodID,
                method_id_helper);

  add_helper_fn("GetFieldID", JniFn::kGetFieldID, [](arm::Cpu& c) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    dvm::ClassObject* cls = dvm.class_at(c.state().regs[1]);
    const std::string name = c.memory().read_cstr(c.state().regs[2]);
    c.state().regs[0] = dvm.field_id(cls, name, /*is_static=*/false);
  });
  add_helper_fn("GetStaticFieldID", JniFn::kGetStaticFieldID,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  dvm::ClassObject* cls = dvm.class_at(c.state().regs[1]);
                  const std::string name =
                      c.memory().read_cstr(c.state().regs[2]);
                  c.state().regs[0] = dvm.field_id(cls, name, true);
                });

  // --- Strings and arrays (helper-backed accessors) ----------------------
  add_helper_fn("GetStringLength", JniFn::kGetStringLength,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* s = decode_or_null(dvm, c.state().regs[1]);
                  c.state().regs[0] =
                      s ? static_cast<u32>(dvm.heap().read_string(*s).size())
                        : 0;
                });

  add_helper_fn(
      "GetStringUTFChars", JniFn::kGetStringUTFChars,
      [](dvm::Dvm& dvm, arm::Cpu& c) {
        Object* s = decode_or_null(dvm, c.state().regs[1]);
        if (s == nullptr) {
          c.state().regs[0] = 0;
          return;
        }
        const std::string utf = dvm.heap().read_string(*s);
        const GuestAddr buf =
            guest_mmap(c, static_cast<u32>(utf.size()) + 1);
        c.memory().write_cstr(buf, utf);
        if (const u32 is_copy = c.state().regs[2]; is_copy != 0) {
          c.memory().write8(is_copy, 1);
        }
        c.state().regs[0] = buf;
        // Taint of the string object is NOT propagated to the buffer here —
        // TaintDroid's gap; NDroid's hook on this function repairs it.
      });

  add_helper_fn("ReleaseStringUTFChars", JniFn::kReleaseStringUTFChars,
                [](arm::Cpu& c) { c.state().regs[0] = 0; });

  add_helper_fn("GetArrayLength", JniFn::kGetArrayLength,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* a = decode_or_null(dvm, c.state().regs[1]);
                  c.state().regs[0] = a ? a->length() : 0;
                });

  auto get_array_elements = [](dvm::Dvm& dvm, arm::Cpu& c) {
    Object* a = decode_or_null(dvm, c.state().regs[1]);
    if (a == nullptr) {
      c.state().regs[0] = 0;
      return;
    }
    const u32 bytes = a->length() * a->elem_size();
    const GuestAddr buf = guest_mmap(c, std::max<u32>(bytes, 1));
    c.memory().copy(buf, dvm.heap().array_data_addr(*a), bytes);
    if (const u32 is_copy = c.state().regs[2]; is_copy != 0) {
      c.memory().write8(is_copy, 1);
    }
    c.state().regs[0] = buf;
  };
  add_helper_fn("GetIntArrayElements", JniFn::kGetIntArrayElements,
                get_array_elements);
  add_helper_fn("GetByteArrayElements", JniFn::kGetByteArrayElements,
                get_array_elements);

  auto release_array_elements = [](dvm::Dvm& dvm, arm::Cpu& c) {
    // mode 0: copy back and free.
    Object* a = decode_or_null(dvm, c.state().regs[1]);
    const GuestAddr buf = c.state().regs[2];
    if (a != nullptr && buf != 0 && c.state().regs[3] == 0) {
      c.memory().copy(dvm.heap().array_data_addr(*a), buf,
                      a->length() * a->elem_size());
    }
    c.state().regs[0] = 0;
  };
  add_helper_fn("ReleaseIntArrayElements", JniFn::kReleaseIntArrayElements,
                release_array_elements);
  add_helper_fn("ReleaseByteArrayElements",
                JniFn::kReleaseByteArrayElements, release_array_elements);

  // Region functions take 5 args; the 5th is on the native stack. These are
  // registered as direct helper addresses (no landing pad) so the helper
  // sees the caller's SP unmodified when reading the stacked argument.
  auto direct_helper_fn = [this](const std::string& name, JniFn index,
                                 arm::Helper helper) {
    const GuestAddr addr =
        register_helper(std::move(helper));
    publish(name, index, addr);
  };
  auto array_region = [](arm::Cpu& c, bool set) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    Object* a = decode_or_null(dvm, c.state().regs[1]);
    if (a == nullptr) return;
    const u32 start = c.state().regs[2];
    const u32 len = c.state().regs[3];
    const GuestAddr buf = c.memory().read32(c.state().sp());
    if (start + len > a->length()) {
      throw GuestFault("ArrayIndexOutOfBounds in array region");
    }
    const GuestAddr data =
        dvm.heap().array_data_addr(*a) + start * a->elem_size();
    const u32 bytes = len * a->elem_size();
    if (set) {
      c.memory().copy(data, buf, bytes);
    } else {
      c.memory().copy(buf, data, bytes);
    }
    c.state().regs[0] = 0;
  };
  direct_helper_fn("GetIntArrayRegion", JniFn::kGetIntArrayRegion,
                   [array_region](arm::Cpu& c) { array_region(c, false); });
  direct_helper_fn("SetIntArrayRegion", JniFn::kSetIntArrayRegion,
                   [array_region](arm::Cpu& c) { array_region(c, true); });
  direct_helper_fn("GetByteArrayRegion", JniFn::kGetByteArrayRegion,
                   [array_region](arm::Cpu& c) { array_region(c, false); });
  direct_helper_fn("SetByteArrayRegion", JniFn::kSetByteArrayRegion,
                   [array_region](arm::Cpu& c) { array_region(c, true); });

  add_helper_fn("GetObjectArrayElement", JniFn::kGetObjectArrayElement,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* a = decode_or_null(dvm, c.state().regs[1]);
                  if (a == nullptr) {
                    c.state().regs[0] = 0;
                    return;
                  }
                  const u32 direct =
                      dvm.heap().array_get(*a, c.state().regs[2]);
                  c.state().regs[0] = to_local_ref(dvm, direct);
                });
  add_helper_fn("SetObjectArrayElement", JniFn::kSetObjectArrayElement,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* a = decode_or_null(dvm, c.state().regs[1]);
                  Object* v = decode_or_null(dvm, c.state().regs[3]);
                  if (a != nullptr) {
                    dvm.heap().array_set(*a, c.state().regs[2],
                                         v ? v->addr() : 0);
                  }
                  c.state().regs[0] = 0;
                });

  // --- Field access (Table IV) --------------------------------------------
  auto get_field = [](arm::Cpu& c, bool to_ref) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    Object* obj = decode_or_null(dvm, c.state().regs[1]);
    const auto fr = dvm.decode_field_id(c.state().regs[2]);
    if (obj == nullptr) throw GuestFault("Get*Field on null object");
    const dvm::Slot& slot = obj->fields().at(fr.field->index);
    c.state().regs[0] = to_ref ? to_local_ref(dvm, slot.value) : slot.value;
  };
  add_helper_fn("GetObjectField", JniFn::kGetObjectField,
                [get_field](arm::Cpu& c) { get_field(c, true); });
  for (auto [name, idx] :
       std::initializer_list<std::pair<const char*, JniFn>>{
           {"GetIntField", JniFn::kGetIntField},
           {"GetBooleanField", JniFn::kGetBooleanField},
           {"GetByteField", JniFn::kGetByteField},
           {"GetCharField", JniFn::kGetCharField},
           {"GetShortField", JniFn::kGetShortField},
           {"GetFloatField", JniFn::kGetFloatField}}) {
    add_helper_fn(name, idx,
                  [get_field](arm::Cpu& c) { get_field(c, false); });
  }

  auto set_field = [](arm::Cpu& c, bool from_ref) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    Object* obj = decode_or_null(dvm, c.state().regs[1]);
    const auto fr = dvm.decode_field_id(c.state().regs[2]);
    if (obj == nullptr) throw GuestFault("Set*Field on null object");
    dvm::Slot& slot = obj->fields().at(fr.field->index);
    const u32 raw = c.state().regs[3];
    slot.value = from_ref && raw != 0 ? dvm.irt().decode(raw)->addr() : raw;
    // Taint slot untouched: native-side taints are invisible to the DVM
    // (the case 1'/3 gap). NDroid hooks Set*Field to write the taint.
    dvm.heap().sync_payload(*obj);
    c.state().regs[0] = 0;
  };
  add_helper_fn("SetObjectField", JniFn::kSetObjectField,
                [set_field](arm::Cpu& c) { set_field(c, true); });
  for (auto [name, idx] :
       std::initializer_list<std::pair<const char*, JniFn>>{
           {"SetIntField", JniFn::kSetIntField},
           {"SetBooleanField", JniFn::kSetBooleanField},
           {"SetByteField", JniFn::kSetByteField},
           {"SetCharField", JniFn::kSetCharField},
           {"SetShortField", JniFn::kSetShortField},
           {"SetFloatField", JniFn::kSetFloatField}}) {
    add_helper_fn(name, idx,
                  [set_field](arm::Cpu& c) { set_field(c, false); });
  }

  add_helper_fn("GetStaticObjectField", JniFn::kGetStaticObjectField,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  const auto fr = dvm.decode_field_id(c.state().regs[2]);
                  const dvm::Slot& slot = fr.cls->statics().at(fr.field->index);
                  c.state().regs[0] = to_local_ref(dvm, slot.value);
                });
  add_helper_fn("GetStaticIntField", JniFn::kGetStaticIntField,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  const auto fr = dvm.decode_field_id(c.state().regs[2]);
                  c.state().regs[0] = fr.cls->statics().at(fr.field->index).value;
                });
  add_helper_fn("SetStaticObjectField", JniFn::kSetStaticObjectField,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  const auto fr = dvm.decode_field_id(c.state().regs[2]);
                  const u32 raw = c.state().regs[3];
                  fr.cls->statics().at(fr.field->index).value =
                      raw == 0 ? 0 : dvm.irt().decode(raw)->addr();
                  c.state().regs[0] = 0;
                });
  add_helper_fn("SetStaticIntField", JniFn::kSetStaticIntField,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  const auto fr = dvm.decode_field_id(c.state().regs[2]);
                  fr.cls->statics().at(fr.field->index).value =
                      c.state().regs[3];
                  c.state().regs[0] = 0;
                });

  // --- References / exceptions -------------------------------------------
  add_helper_fn("ExceptionOccurred", JniFn::kExceptionOccurred,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* exc = dvm.pending_exception;
                  c.state().regs[0] = exc ? dvm.irt().add(exc) : 0;
                });
  add_helper_fn("ExceptionClear", JniFn::kExceptionClear,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  dvm.pending_exception = nullptr;
                  c.state().regs[0] = 0;
                });
  add_helper_fn("DeleteLocalRef", JniFn::kDeleteLocalRef,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  dvm.irt().remove(c.state().regs[1]);
                  c.state().regs[0] = 0;
                });
  add_helper_fn("NewGlobalRef", JniFn::kNewGlobalRef, [](arm::Cpu& c) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    Object* obj = decode_or_null(dvm, c.state().regs[1]);
    c.state().regs[0] =
        obj ? dvm.irt().add(obj, dvm::RefKind::kGlobal) : 0;
  });
  add_helper_fn("GetObjectClass", JniFn::kGetObjectClass,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  Object* obj = decode_or_null(dvm, c.state().regs[1]);
                  c.state().regs[0] = obj && obj->clazz()
                                          ? dvm.class_mirror(obj->clazz())
                                          : 0;
                });
  add_helper_fn("PushLocalFrame", JniFn::kPushLocalFrame,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  dvm.irt().push_frame();
                  c.state().regs[0] = 0;  // JNI_OK
                });
  add_helper_fn("PopLocalFrame", JniFn::kPopLocalFrame,
                [](dvm::Dvm& dvm, arm::Cpu& c) {
                  c.state().regs[0] = dvm.irt().pop_frame(c.state().regs[1]);
                });
  add_helper_fn("IsSameObject", JniFn::kIsSameObject, [](arm::Cpu& c) {
    dvm::Dvm& dvm = dvm::Dvm::of(c);
    Object* a = decode_or_null(dvm, c.state().regs[1]);
    Object* b = decode_or_null(dvm, c.state().regs[2]);
    c.state().regs[0] = a == b ? 1 : 0;
  });
}

// --- Object creation: NOF stubs wrapping MAF guest calls (Table III) ------

void Builder::build_object_creation() {
  const GuestAddr h_to_ref =
      register_helper([](dvm::Dvm& dvm, arm::Cpu& c) {
        c.state().regs[0] = to_local_ref(dvm, c.state().regs[0]);
      });

  // NewStringUTF(env, cstr) -> dvmCreateStringFromCstr(cstr) -> iref.
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.call(sym("dvmCreateStringFromCstr"));
    a.call(h_to_ref);
    a.pop({PC});
    const auto code = a.finish();
    publish("NewStringUTF", JniFn::kNewStringUTF,
            stub_alloc("NewStringUTF", code));
  }

  // NewString(env, jchar*, len) -> dvmCreateStringFromUnicode.
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.mov(R(1), R(2));
    a.call(sym("dvmCreateStringFromUnicode"));
    a.call(h_to_ref);
    a.pop({PC});
    const auto code = a.finish();
    publish("NewString", JniFn::kNewString,
            stub_alloc("NewString", code));
  }

  // NewObject{,V,A}(env, jclass, ctor, args...) -> dvmAllocObject.
  // Constructor invocation is elided (scenario classes use default init).
  for (auto [name, idx] :
       std::initializer_list<std::pair<const char*, JniFn>>{
           {"NewObject", JniFn::kNewObject},
           {"NewObjectV", JniFn::kNewObjectV},
           {"NewObjectA", JniFn::kNewObjectA}}) {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.call(sym("dvmAllocObject"));
    a.call(h_to_ref);
    a.pop({PC});
    const auto code = a.finish();
    publish(name, idx, stub_alloc(name, code));
  }

  // NewObjectArray(env, len, jclass, init) -> dvmAllocArrayByClass(cls, len).
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(2));  // class
    // r1 already = len
    a.call(sym("dvmAllocArrayByClass"));
    a.call(h_to_ref);
    a.pop({PC});
    const auto code = a.finish();
    publish("NewObjectArray", JniFn::kNewObjectArray,
            stub_alloc("NewObjectArray", code));
  }

  // New<Prim>Array(env, len) -> dvmAllocPrimitiveArray(elem_size, len).
  for (auto [name, idx, elem_size] :
       std::initializer_list<std::tuple<const char*, JniFn, u32>>{
           {"NewIntArray", JniFn::kNewIntArray, 4},
           {"NewByteArray", JniFn::kNewByteArray, 1},
           {"NewCharArray", JniFn::kNewCharArray, 2},
           {"NewBooleanArray", JniFn::kNewBooleanArray, 1}}) {
    Assembler a(0);
    a.push({LR});
    a.mov_imm(R(0), elem_size);
    // r1 already = len
    a.call(sym("dvmAllocPrimitiveArray"));
    a.call(h_to_ref);
    a.pop({PC});
    const auto code = a.finish();
    publish(name, idx, stub_alloc(name, code));
  }
}

// --- Call*Method family (Table II) -----------------------------------------

void Builder::build_call_method_family() {
  const GuestAddr h_to_ref =
      register_helper([](dvm::Dvm& dvm, arm::Cpu& c) {
        c.state().regs[0] = to_local_ref(dvm, c.state().regs[0]);
      });

  // Call<Kind><Type>Method<Form>(env, obj|cls, methodID, args_ptr):
  // marshals to dvmCallMethod{V,A}(method, receiver_iref, &jvalue, args).
  // Per Table II, the plain and V forms route to dvmCallMethodV and the A
  // form to dvmCallMethodA.
  struct Variant {
    const char* kind;   // "", "Nonvirtual", "Static"
    const char* type;   // "Void", "Int", "Object"
    const char* form;   // "", "V", "A"
  };
  for (const char* kind : {"", "Nonvirtual", "Static"}) {
    for (const char* type : {"Void", "Int", "Object"}) {
      for (const char* form : {"", "V", "A"}) {
        const std::string name =
            std::string("Call") + kind + type + "Method" + form;
        const char target = (form[0] == 'A') ? 'A' : 'V';
        const bool is_static = kind[0] == 'S';
        const bool ref_result = type[0] == 'O';

        Assembler a(0);
        a.push({R(4), LR});
        a.sub_imm(arm::SP, arm::SP, 8);  // JValue result slot
        a.mov(R(4), R(1));               // receiver iref (or jclass)
        a.mov(R(0), R(2));               // methodID
        if (is_static) {
          a.mov_imm(R(1), 0);            // statics ignore the receiver
        } else {
          a.mov(R(1), R(4));
        }
        a.mov(R(2), arm::SP);            // result ptr
        // r3 already = args_ptr
        a.call(sym(target == 'A' ? "dvmCallMethodA" : "dvmCallMethodV"));
        a.ldr(R(0), arm::SP, 0);
        a.add_imm(arm::SP, arm::SP, 8);
        if (ref_result) a.call(h_to_ref);
        a.pop({R(4), PC});
        const auto code = a.finish();

        const u32 base_idx = static_cast<u32>(JniFn::kCallVoidMethod);
        const u32 kind_off = kind[0] == 'N' ? 9 : (kind[0] == 'S' ? 18 : 0);
        const u32 type_off = type[0] == 'I' ? 3 : (type[0] == 'O' ? 6 : 0);
        const u32 form_off = form[0] == 'V' ? 1 : (form[0] == 'A' ? 2 : 0);
        publish(name,
                static_cast<JniFn>(base_idx + kind_off + type_off + form_off),
                stub_alloc(name, code));
      }
    }
  }
}

// --- ThrowNew -> initException -> dvmCreateStringFromCstr ------------------

void Builder::build_throw_new() {

  // initException(jclass, msg_string_real_addr): builds the exception object
  // around the already-created message string and sets it pending.
  const GuestAddr h_init_exc =
      register_helper([](dvm::Dvm& dvm, arm::Cpu& c) {
        dvm::ClassObject* cls = dvm.class_at(c.state().regs[0]);
        Object* msg = dvm.heap().object_at(c.state().regs[1]);
        if (cls->find_instance_field("message") == nullptr) {
          cls->add_instance_field("message", 'L');
        }
        Object* exc = dvm.heap().new_instance(cls);
        const dvm::Field* f = cls->find_instance_field("message");
        exc->fields().at(f->index).value = msg ? msg->addr() : 0;
        dvm.heap().sync_payload(*exc);
        dvm.pending_exception = exc;
        c.state().regs[0] = exc->addr();
      });

  // initException stub: (jclass r0, msg_cstr r1)
  GuestAddr init_exception_addr;
  {
    Assembler a(0);
    a.push({R(4), LR});
    a.mov(R(4), R(0));  // save class
    a.mov(R(0), R(1));  // cstr
    a.call(sym("dvmCreateStringFromCstr"));
    a.mov(R(1), R(0));  // msg string real addr
    a.mov(R(0), R(4));  // class
    a.call(h_init_exc);
    a.pop({R(4), PC});
    const auto code = a.finish();
    init_exception_addr = stub_alloc("initException", code);
    image_.symbols["initException"] = init_exception_addr;
  }

  // ThrowNew(env, jclass, msg_cstr) -> initException(jclass, msg).
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.mov(R(1), R(2));
    a.call(init_exception_addr);
    a.mov_imm(R(0), 0);  // JNI_OK
    a.pop({PC});
    const auto code = a.finish();
    publish("ThrowNew", JniFn::kThrowNew, stub_alloc("ThrowNew", code));
  }
}

}  // namespace

JniImage JniEnv::build_image(arm::Cpu& cpu, dvm::LibdvmImage& libdvm) {
  JniImage image;
  // JNIEnv* -> table pointer -> function pointers.
  image.table_addr =
      libdvm.arena.alloc_data(4 * static_cast<u32>(JniFn::kCount));
  image.env_addr = libdvm.arena.alloc_data(4);
  cpu.memory().write32(image.env_addr, image.table_addr);
  Builder b{cpu, libdvm, image};
  b.build_accessors();
  b.build_object_creation();
  b.build_call_method_family();
  b.build_throw_new();
  return image;
}

}  // namespace ndroid::jni
