// Published symbols of a system library (libdvm, libc, the JNI table).
//
// The Android system image builds each table once per process; every
// Device's table starts as a view of that shared one and copies it only
// when the Device publishes a symbol of its own (a late stub, dlopen).
#pragma once

#include <map>
#include <string>

#include "common/types.h"

namespace ndroid {

class SymbolTable {
 public:
  using Map = std::map<std::string, GuestAddr>;

  SymbolTable() = default;
  /// Views `shared`, which must outlive this table and never change.
  explicit SymbolTable(const Map& shared) : shared_(&shared) {}

  [[nodiscard]] const Map& map() const {
    return shared_ != nullptr ? *shared_ : own_;
  }
  /// Address of `name`, or 0 when it is not published.
  [[nodiscard]] GuestAddr find(const std::string& name) const {
    auto it = map().find(name);
    return it == map().end() ? 0 : it->second;
  }
  [[nodiscard]] bool contains(const std::string& name) const {
    return map().contains(name);
  }
  void set(const std::string& name, GuestAddr addr) {
    if (shared_ != nullptr) {
      own_ = *shared_;
      shared_ = nullptr;
    }
    own_[name] = addr;
  }

 private:
  const Map* shared_ = nullptr;
  Map own_;
};

}  // namespace ndroid
