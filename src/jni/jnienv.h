// The JNIEnv function table, materialised in guest memory.
//
// JNIEnv* is a pointer to a pointer to a table of function pointers, exactly
// as in the JNI spec: native code may resolve functions through the table
// (`ldr ip, [env]; ldr ip, [ip, #4*index]; blx ip`) or call the published
// symbol addresses directly.
//
// Two implementation styles, chosen per function:
//  * *stub-chained* — a guest stub whose internal calls to other libdvm
//    functions are real guest branches. Used where the paper's analysis
//    depends on the chain: the Call*Method family -> dvmCallMethod{V,A} ->
//    dvmInterpret (Table II / Fig. 5 multilevel hooking), the object-creation
//    NOF -> MAF pairs (Table III / Fig. 6), and ThrowNew -> initException ->
//    dvmCreateStringFromCstr -> dvmCallMethodV (§V-B "Exception").
//  * *helper-backed* — the function address dispatches straight into C++.
//    Entry/exit are still guest branch events, which is all NDroid needs to
//    hook the field accessors (Table IV) and GetStringUTFChars-style
//    functions (Figs. 7, 8).
//
// None of these functions propagates taint: that is precisely TaintDroid's
// JNI blind spot (paper §IV); NDroid's hook engines add the propagation.
//
// The table, its stubs and its helpers are assembled into libdvm.so once per
// process (build_image, part of android::SystemImage); a JniEnv only binds
// the result.
#pragma once

#include <map>
#include <string>

#include "common/symbol_table.h"
#include "dvm/dvm.h"
#include "os/kernel.h"

namespace ndroid::jni {

/// Table indices (subset of the JNI spec's layout, same ordering idea).
enum class JniFn : u32 {
  kFindClass = 0,
  kGetMethodID,
  kGetStaticMethodID,
  kGetFieldID,
  kGetStaticFieldID,
  kNewObject,
  kNewObjectV,
  kNewObjectA,
  kNewString,
  kNewStringUTF,
  kNewObjectArray,
  kNewIntArray,
  kNewByteArray,
  kNewCharArray,
  kNewBooleanArray,
  kGetStringLength,
  kGetStringUTFChars,
  kReleaseStringUTFChars,
  kGetArrayLength,
  kGetIntArrayElements,
  kGetByteArrayElements,
  kReleaseIntArrayElements,
  kReleaseByteArrayElements,
  kGetIntArrayRegion,
  kSetIntArrayRegion,
  kGetByteArrayRegion,
  kSetByteArrayRegion,
  kGetObjectArrayElement,
  kSetObjectArrayElement,
  kCallVoidMethod,
  kCallVoidMethodV,
  kCallVoidMethodA,
  kCallIntMethod,
  kCallIntMethodV,
  kCallIntMethodA,
  kCallObjectMethod,
  kCallObjectMethodV,
  kCallObjectMethodA,
  kCallNonvirtualVoidMethod,
  kCallNonvirtualVoidMethodV,
  kCallNonvirtualVoidMethodA,
  kCallNonvirtualIntMethod,
  kCallNonvirtualIntMethodV,
  kCallNonvirtualIntMethodA,
  kCallNonvirtualObjectMethod,
  kCallNonvirtualObjectMethodV,
  kCallNonvirtualObjectMethodA,
  kCallStaticVoidMethod,
  kCallStaticVoidMethodV,
  kCallStaticVoidMethodA,
  kCallStaticIntMethod,
  kCallStaticIntMethodV,
  kCallStaticIntMethodA,
  kCallStaticObjectMethod,
  kCallStaticObjectMethodV,
  kCallStaticObjectMethodA,
  kGetObjectField,
  kGetIntField,
  kGetBooleanField,
  kGetByteField,
  kGetCharField,
  kGetShortField,
  kGetFloatField,
  kSetObjectField,
  kSetIntField,
  kSetBooleanField,
  kSetByteField,
  kSetCharField,
  kSetShortField,
  kSetFloatField,
  kGetStaticObjectField,
  kGetStaticIntField,
  kSetStaticObjectField,
  kSetStaticIntField,
  kThrowNew,
  kExceptionOccurred,
  kExceptionClear,
  kDeleteLocalRef,
  kNewGlobalRef,
  kGetObjectClass,
  kPushLocalFrame,
  kPopLocalFrame,
  kIsSameObject,
  kCount,
};

/// The JNI function table as built once per process. JniEnv objects bind
/// it by reference, so it must outlive them.
struct JniImage {
  SymbolTable::Map symbols;
  GuestAddr env_addr = 0;
  GuestAddr table_addr = 0;
};

class JniEnv {
 public:
  /// Assembles the table, its stubs and its helpers into `libdvm` (already
  /// built on `cpu` by dvm::Dvm::build_image).
  static JniImage build_image(arm::Cpu& cpu, dvm::LibdvmImage& libdvm);

  JniEnv(dvm::Dvm& dvm, const JniImage& image);

  JniEnv(const JniEnv&) = delete;
  JniEnv& operator=(const JniEnv&) = delete;

  /// The JNIEnv* value native methods receive in R0.
  [[nodiscard]] GuestAddr env_addr() const { return image_.env_addr; }

  /// Guest address of a JNI function by name (e.g. "NewStringUTF").
  [[nodiscard]] GuestAddr fn(const std::string& name) const;
  [[nodiscard]] GuestAddr fn(JniFn index) const;

  /// All published function symbols (hook engines iterate these the way
  /// NDroid derived offsets by disassembling libdvm.so, §V-G).
  [[nodiscard]] const SymbolTable::Map& symbols() const {
    return image_.symbols;
  }

 private:
  dvm::Dvm& dvm_;
  const JniImage& image_;
};

}  // namespace ndroid::jni
