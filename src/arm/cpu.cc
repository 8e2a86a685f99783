#include "arm/cpu.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "arm/jit.h"  // complete JitEngine for ~Cpu / jit_engine_ resets

namespace ndroid::arm {

namespace {

/// The calling thread's decode memo: direct-mapped, allocated on the
/// thread's first decode and kept for the thread's lifetime.
struct DecodeEntry {
  u64 key = ~0ull;
  Insn insn;
};
constexpr u32 kDecodeMemoBits = 14;

DecodeEntry* decode_memo() {
  thread_local std::unique_ptr<DecodeEntry[]> memo;
  if (memo == nullptr) [[unlikely]] {
    memo = std::make_unique<DecodeEntry[]>(1u << kDecodeMemoBits);
  }
  return memo.get();
}

/// Decodes through the memo; `hit` says whether the entry was there.
const Insn& memo_decode(u64 key, u32 word, u16 hw2, bool& hit) {
  DecodeEntry& entry =
      decode_memo()[static_cast<u32>((key * 0x9E3779B97F4A7C15ull) >>
                                     (64 - kDecodeMemoBits))];
  hit = entry.key == key;
  if (!hit) {
    entry.insn = (key >> 62) == 2 ? decode_thumb(static_cast<u16>(word), hw2)
                                  : decode_arm(word);
    entry.key = key;
  }
  return entry.insn;
}

}  // namespace

Cpu::Cpu(mem::AddressSpace& memory, mem::MemoryMap& memmap)
    : memory_(memory), memmap_(memmap) {
  // Self-modifying-code safety: any write into a page holding cached code
  // (guest store or host-side image load) kills the blocks it intersects.
  memory_.set_write_watch(
      &tb_cache_.code_pages(),
      [this](GuestAddr addr, u32 len) { tb_cache_.invalidate_range(addr, len); });
  // And the TLB half of that contract: when cached code first lands on a
  // page, any write-TLB entry cached while the page was unwatched must go,
  // or stores through it would bypass the watch (see address_space.h).
  tb_cache_.set_watch_armed_notifier(
      [this](u32 page) { memory_.tlb_invalidate_write_page(page); });
}

Cpu::~Cpu() { memory_.set_write_watch(nullptr, {}); }

int Cpu::add_insn_hook(InsnHook hook, bool gated) {
  const int id = next_hook_id_++;
  insn_hooks_.push_back({id, gated, std::move(hook)});
  gated_hooks_ += gated;
  // Fused trace streams bake in the hook topology at build time (they are
  // only used while exactly one hook is registered); a topology change
  // while an emitter is installed voids every built stream.
  if (trace_emitter_) flush_blocks();
  return id;
}

void Cpu::remove_insn_hook(int id) {
  std::erase_if(insn_hooks_, [&](const HookEntry& h) {
    if (h.id != id) return false;
    gated_hooks_ -= h.gated;
    return true;
  });
  if (trace_emitter_) flush_blocks();
}

int Cpu::add_branch_hook(BranchHook hook, bool gated) {
  const int id = next_hook_id_++;
  branch_hooks_.push_back({id, gated, std::move(hook)});
  gated_branch_hooks_ += gated;
  return id;
}

void Cpu::remove_branch_hook(int id) {
  std::erase_if(branch_hooks_, [&](const BranchHookEntry& h) {
    if (h.id != id) return false;
    gated_branch_hooks_ -= h.gated;
    return true;
  });
}

void Cpu::set_block_gate(BlockGate gate, const u64* epoch) {
  block_gate_ = std::move(gate);
  block_gate_epoch_ = epoch;
  flush_blocks();
}

void Cpu::set_branch_gate(BranchGate gate, const u64* epoch) {
  branch_gate_ = std::move(gate);
  branch_gate_epoch_ = epoch;
  flush_blocks();  // void any per-block branch memos from a previous gate
}

void Cpu::register_helper(GuestAddr addr, Helper helper) {
  addr &= ~1u;
  if (addr < kHelperWindowBase) {
    // Below the window every run loop skips the helper lookup by default;
    // arm the check, and kill any cached block covering the shadowed
    // address (translation also stops in front of low helpers from now on).
    low_helpers_[addr] = std::move(helper);
    has_low_helpers_ = true;
    tb_cache_.invalidate_range(addr, 4);
    return;
  }
  const u32 shared = system_helpers_ != nullptr
                         ? static_cast<u32>(system_helpers_->size())
                         : 0;
  const u32 slot = (addr - kHelperWindowBase) >> 2;
  if ((addr & 3) != 0 || slot < shared) {
    throw GuestFault("helper slot unavailable at 0x" + std::to_string(addr));
  }
  if (slot - shared >= helpers_.size()) helpers_.resize(slot - shared + 1);
  helpers_[slot - shared] = std::move(helper);
}

GuestAddr Cpu::register_helper_auto(Helper helper) {
  const GuestAddr addr = next_helper_addr_;
  next_helper_addr_ += 4;
  register_helper(addr, std::move(helper));
  return addr;
}

void Cpu::install_helpers(const HelperTable& table) {
  system_helpers_ = &table;
  next_helper_addr_ = kHelperWindowBase + 4 * static_cast<u32>(table.size());
}

HelperTable Cpu::take_helpers() {
  next_helper_addr_ = kHelperWindowBase;
  return std::exchange(helpers_, {});
}

void Cpu::set_use_tb_cache(bool on) {
  if (use_tb_cache_ == on) return;
  use_tb_cache_ = on;
  flush_blocks();
}

void Cpu::set_threaded_enabled(bool on) {
  if (threaded_enabled_ == on) return;
  threaded_enabled_ = on;
  flush_blocks();
}

void Cpu::set_trace_emitter(TraceEmitter emitter) {
  trace_emitter_ = std::move(emitter);
  flush_blocks();
}

void Cpu::flush_blocks() { tb_cache_.flush(); }

void Cpu::fire_branch_hooks(GuestAddr from, GuestAddr to) {
  for (auto& h : branch_hooks_) h.fn(*this, from, to);
}

const Insn& Cpu::decode_cached(u64 key, u32 word, u16 hw2) {
  ++decode_lookups_;
  bool hit = false;
  const Insn& insn = memo_decode(key, word, hw2, hit);
  decode_hits_ += hit ? 1 : 0;
  return insn;
}

const Insn& Cpu::fetch_decode(GuestAddr pc, bool thumb) {
  if (thumb) {
    const u16 hw = memory_.read16(pc);
    if (is_thumb32(hw)) {
      const u16 hw2 = memory_.read16(pc + 2);
      const u64 key = (static_cast<u64>(hw2) << 16) | hw | (2ull << 62);
      return decode_cached(key, hw, hw2);
    }
    // 16-bit encodings key on their own halfword alone, so the same
    // instruction hits the cache regardless of what follows it.
    return decode_cached(static_cast<u64>(hw) | (2ull << 62), hw, 0);
  }
  const u32 word = memory_.read32(pc);
  return decode_cached(static_cast<u64>(word) | (1ull << 62), word, 0);
}

void Cpu::warm_decode(std::span<const u8> arm_code) {
  for (std::size_t i = 0; i + 4 <= arm_code.size(); i += 4) {
    u32 word;
    std::memcpy(&word, arm_code.data() + i, 4);
    bool hit = false;
    memo_decode(static_cast<u64>(word) | (1ull << 62), word, 0, hit);
  }
}

bool Cpu::run_helper(GuestAddr pc) {
  const Helper* helper = nullptr;
  if (pc < kHelperWindowBase) {
    auto it = low_helpers_.find(pc);
    if (it != low_helpers_.end()) helper = &it->second;
  } else if ((pc & 3) == 0) {
    u32 slot = (pc - kHelperWindowBase) >> 2;
    const u32 shared = system_helpers_ != nullptr
                           ? static_cast<u32>(system_helpers_->size())
                           : 0;
    if (slot < shared) {
      helper = &(*system_helpers_)[slot];
    } else if ((slot -= shared) < helpers_.size() && helpers_[slot]) {
      helper = &helpers_[slot];
    }
  }
  if (helper == nullptr) return false;
  ++retired_;
  const GuestAddr ret = state_.lr();
  (*helper)(*this);
  if (state_.pc() == pc) {
    state_.thumb = (ret & 1) != 0;
    state_.set_pc(ret & ~1u);
    fire_branch_hooks(pc, state_.pc());
  }
  return true;
}

void Cpu::step() {
  const GuestAddr pc = state_.pc();

  // Helpers normally live in the 0xF0000000+ window; skip the hash lookup
  // for ordinary guest code unless a helper shadows a low address.
  if ((pc >= kHelperWindowBase || has_low_helpers_) && run_helper(pc)) return;

  const Insn& insn = fetch_decode(pc, state_.thumb);

  for (auto& h : insn_hooks_) h.fn(*this, insn, pc);

  if (insn.op == Op::kSvc &&
      condition_passed(effective_cond(insn, state_), state_)) {
    if (!svc_handler_) throw GuestFault("SVC with no kernel attached");
    if (state_.thumb && state_.itstate != 0) advance_itstate(state_);
    state_.set_pc(pc + insn.length);
    ++retired_;
    svc_handler_(*this, insn.imm);
    return;
  }

  execute(insn, state_, memory_);
  ++retired_;

  if (state_.pc() != pc + insn.length) fire_branch_hooks(pc, state_.pc());
}

std::shared_ptr<TranslationBlock> Cpu::translate(GuestAddr pc, bool thumb) {
  auto tb = std::make_shared<TranslationBlock>();
  tb->pc = pc;
  tb->thumb = thumb;
  GuestAddr cur = pc;
  u32 it_left = 0;  // instructions still covered by a decoded IT
  while (tb->insns.size() < TbCache::kMaxBlockInsns) {
    // Never fall through into the helper window — or onto a helper that
    // shadows ordinary guest code: the run loop must regain control there
    // to dispatch helpers.
    if (cur >= kHelperWindowBase) break;
    if (cur != pc && is_low_helper(cur)) break;
    const Insn& insn = fetch_decode(cur, thumb);
    if (insn.op == Op::kUndefined) break;  // step() raises the fault
    if (insn.op == Op::kIt) {
      const u32 len =
          4 - static_cast<u32>(std::countr_zero(insn.imm & 0xFu));
      // Never split an IT block across translation blocks: the covered
      // instructions must live in the same block as the IT so their
      // conditional (un-fusable) treatment below is always applied.
      if (tb->insns.size() + 1 + len > TbCache::kMaxBlockInsns) break;
      it_left = len;
    }
    TbInsn ti;
    ti.insn = insn;
    ti.pc = cur;
    ti.taint_class = insn.taint_class();
    if (it_left > 0 && insn.op != Op::kIt) {
      // IT'd instructions execute conditionally and must suppress flag
      // writes; only the general execute() path understands ITSTATE.
      ti.fast = nullptr;
      --it_left;
    } else {
      ti.fast = select_fast_exec(insn);
      if (ti.fast == nullptr) ti.fast = select_fast_mem(insn);
    }
    switch (ti.taint_class) {
      case TaintClass::kLoad:
      case TaintClass::kLdm:
        tb->has_loads = true;
        break;
      case TaintClass::kStore:
      case TaintClass::kStm:
        tb->has_stores = true;
        break;
      default:
        break;
    }
    if (insn.op == Op::kSvc) tb->has_svc = true;
    tb->insns.push_back(ti);
    cur += insn.length;
    tb->byte_length += insn.length;
    if (ends_block(insn)) break;
  }
  if (tb->insns.empty()) return nullptr;
  if (tb->insns.size() >= 2) {
    // Peephole: a block ending in an ALU + direct branch pair (`cmp …;
    // b<cond>`, `subs …; bne`, `add …; b` — the loop idioms) replays the
    // pair through one fused handler. Requiring both individual fast
    // handlers keeps IT'd and odd-shaped pairs on per-insn dispatch.
    const TbInsn& a = tb->insns[tb->insns.size() - 2];
    const TbInsn& b = tb->insns.back();
    if (a.fast != nullptr && b.fast != nullptr) {
      tb->tail = select_fused_pair(a.insn, b.insn);
    }
  }
  return tb;
}

bool Cpu::is_branch_quiet(TranslationBlock& tb, GuestAddr from, GuestAddr to) {
  if (branch_hooks_.empty()) return true;
  if (!branch_gate_ ||
      gated_branch_hooks_ != static_cast<int>(branch_hooks_.size())) {
    return false;
  }
  // Only a PC-writing instruction can take a branch and every such
  // instruction terminates its block, so the source of any taken branch
  // from this block is fixed — (block, to) identifies the edge and the
  // per-block memo is sound under the client's epoch counter.
  if (branch_gate_epoch_ != nullptr &&
      tb.branch_epoch == *branch_gate_epoch_ && tb.branch_to == to) {
    return tb.branch_quiet;
  }
  const bool quiet = !branch_gate_(*this, from, to);
  if (branch_gate_epoch_ != nullptr) {
    tb.branch_epoch = *branch_gate_epoch_;
    tb.branch_to = to;
    tb.branch_quiet = quiet;
  }
  return quiet;
}

u64 Cpu::exec_block(TranslationBlock& tb_entry, u64 budget) {
  TranslationBlock* cur = &tb_entry;
  u64 done = 0;
chain:
  TranslationBlock& tb = *cur;
  // Instructions retired before this block started, for per-block fast-path
  // accounting (gate decisions differ between chained blocks).
  const u64 block_base = done;
  // Hooks are resolved once per block: the gate may declare the whole block
  // hook-free when every registered hook consented to gating.
  bool fire = !insn_hooks_.empty();
  bool gate_skip = false;
  if (fire && block_gate_ &&
      gated_hooks_ == static_cast<int>(insn_hooks_.size())) {
    // Per-block memo, valid while the client's epoch counter stands still
    // (the client bumps it whenever any gate input changes).
    if (block_gate_epoch_ != nullptr && tb.gate_epoch == *block_gate_epoch_) {
      fire = tb.gate_fire;
    } else {
      fire = block_gate_(*this, tb);
      if (block_gate_epoch_ != nullptr) {
        tb.gate_epoch = *block_gate_epoch_;
        tb.gate_fire = fire;
      }
    }
    gate_skip = !fire;
  }

  const std::size_t n = tb.insns.size();

  if (!fire) {
    // Hot replay: no instruction hooks fire, so the only per-instruction
    // obligations are the executor itself. Non-last instructions are
    // provably sequential (any instruction that may write the PC terminates
    // its block at translation time), so PC checks happen once per block;
    // tb.dead can only flip mid-block through this block's own stores.
    const std::size_t last = n - 1;
    // With a fused compare-and-branch tail the final two instructions run
    // as one dispatch after the loop; otherwise only the final one does.
    const std::size_t body = tb.tail != nullptr ? last - 1 : last;
  hot_restart:
    if (budget - done < n) goto careful;  // budget can't cover the block
    ++tb.exec_count;
    if (gate_skip) ++fastpath_blocks_;
    if (!tb.has_stores) {
      for (std::size_t i = 0; i < body; ++i) {
        const TbInsn& ti = tb.insns[i];
        if (ti.fast != nullptr) {
          ti.fast(ti.insn, state_, memory_);
        } else {
          execute(ti.insn, state_, memory_);
        }
      }
    } else {
      for (std::size_t i = 0; i < body; ++i) {
        const TbInsn& ti = tb.insns[i];
        if (ti.fast != nullptr) {
          ti.fast(ti.insn, state_, memory_);
        } else {
          execute(ti.insn, state_, memory_);
        }
        if (tb.dead) {
          // The block overwrote its own upcoming instructions: stop
          // replaying stale code and re-translate on re-entry.
          retired_ += i + 1;
          done += i + 1;
          goto out;
        }
      }
    }
    retired_ += body;
    done += body;
    {
      const TbInsn& ti = tb.insns[last];
      if (tb.tail != nullptr) {
        // CMP + B<cond> pair (never an SVC, never a store) in one call.
        tb.tail(tb.insns[last - 1].insn, ti.insn, state_);
        retired_ += 2;
        done += 2;
      } else {
        if (ti.insn.op == Op::kSvc &&
            condition_passed(effective_cond(ti.insn, state_), state_)) {
          if (!svc_handler_) throw GuestFault("SVC with no kernel attached");
          if (state_.thumb && state_.itstate != 0) advance_itstate(state_);
          state_.set_pc(ti.pc + ti.insn.length);
          ++retired_;
          ++done;
          svc_handler_(*this, ti.insn.imm);
          goto out;
        }
        if (ti.fast != nullptr) {
          ti.fast(ti.insn, state_, memory_);
        } else {
          execute(ti.insn, state_, memory_);
        }
        ++retired_;
        ++done;
      }
      if (state_.pc() != ti.pc + ti.insn.length) {
        const GuestAddr to = state_.pc();
        if (!is_branch_quiet(tb, ti.pc, to)) {
          fire_branch_hooks(ti.pc, to);
          goto out;
        }
        // Quiet self-loop chaining: this iteration ran pure guest
        // computation (no hooks, no SVC), so no analysis state can have
        // changed and the gate decisions above still hold.
        // Self-modification is the one escape hatch (the write watch
        // flips tb.dead synchronously).
        if (to == tb.pc && state_.thumb == tb.thumb && !tb.dead) {
          goto hot_restart;
        }
        // Cross-block chaining: the branch was quiet, so the only work
        // run_tb would do is re-dispatch — and when the target is an
        // already-translated block (front-cache hit under the current
        // cache version, outside the helper window, no live ITSTATE),
        // that dispatch can happen right here without paying the
        // call/return, exception frame, and graveyard checks per
        // transition. Anything else (miss, helper, host return, mid-IT
        // landing) surfaces to run_tb as before. The helper-window check
        // also covers kHostReturnAddr, which lives above the window base.
        if (state_.itstate == 0 && to < kHelperWindowBase &&
            !is_low_helper(to)) {
          const u64 key = TbCache::key(to, state_.thumb);
          TbFrontEntry& fe = tb_front_[static_cast<u32>(
              (key * 0x9E3779B97F4A7C15ull) >> (64 - kTbFrontBits))];
          if (fe.key == key && fe.version == tb_cache_.version()) {
            tb_cache_.count_front_hit();
            if (gate_skip) fastpath_insns_ += done - block_base;
            cur = fe.tb;
            goto chain;
          }
        }
      }
    }
    goto out;
  }

careful:
  // Hooked (or budget-constrained) replay: per-instruction hook dispatch,
  // budget accounting, and self-modification checks.
  ++tb.exec_count;
  if (gate_skip) ++fastpath_blocks_;
  for (std::size_t i = 0; i < n && done < budget; ++i) {
    const TbInsn& ti = tb.insns[i];
    if (fire) {
      for (auto& h : insn_hooks_) h.fn(*this, ti.insn, ti.pc);
    }
    if (ti.insn.op == Op::kSvc &&
        condition_passed(effective_cond(ti.insn, state_), state_)) {
      if (!svc_handler_) throw GuestFault("SVC with no kernel attached");
      if (state_.thumb && state_.itstate != 0) advance_itstate(state_);
      state_.set_pc(ti.pc + ti.insn.length);
      ++retired_;
      ++done;
      svc_handler_(*this, ti.insn.imm);
      break;  // SVC always terminates a block
    }
    if (ti.fast != nullptr) {
      ti.fast(ti.insn, state_, memory_);
    } else {
      execute(ti.insn, state_, memory_);
    }
    ++retired_;
    ++done;
    if (state_.pc() != ti.pc + ti.insn.length) {
      // Taken branch. When every branch hook is gated and the branch gate
      // declares the edge uninteresting, firing them would be a no-op.
      if (!is_branch_quiet(tb, ti.pc, state_.pc())) {
        fire_branch_hooks(ti.pc, state_.pc());
      }
      break;
    }
    // The block may have stored over (or a hook rewritten) its own code:
    // stop replaying stale instructions and re-translate on re-entry.
    if (tb.dead) break;
  }

out:
  if (gate_skip) fastpath_insns_ += done - block_base;
  return done;
}

bool Cpu::run_interpretive(u64 max_steps) {
  for (u64 i = 0; i < max_steps; ++i) {
    if (state_.pc() == kHostReturnAddr) return true;
    step();
  }
  return state_.pc() == kHostReturnAddr;
}

bool Cpu::run_tb(u64 max_steps) {
  u64 done = 0;
  while (done < max_steps) {
    const GuestAddr pc = state_.pc();
    if (pc == kHostReturnAddr) return true;
    if (state_.itstate != 0) {
      // Mid-IT continuation (a block ended inside an IT block, or a jump
      // landed in one): blocks starting here were translated without IT
      // context, so their fused handlers would ignore the live ITSTATE.
      // Step interpretively until the IT block drains (at most 4 steps).
      step();
      ++done;
      continue;
    }
    if (pc >= kHelperWindowBase || is_low_helper(pc)) {
      step();  // helper dispatch (or plain execution in the window)
      ++done;
      continue;
    }
    const u64 key = TbCache::key(pc, state_.thumb);
    TbFrontEntry& fe = tb_front_[static_cast<u32>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - kTbFrontBits))];
    TranslationBlock* tb;
    if (fe.key == key && fe.version == tb_cache_.version()) {
      tb_cache_.count_front_hit();
      tb = fe.tb;
    } else {
      std::shared_ptr<TranslationBlock> found =
          tb_cache_.lookup(pc, state_.thumb);
      if (found == nullptr) {
        found = translate(pc, state_.thumb);
        if (found == nullptr) {
          step();  // undecodable head instruction: fault via the slow path
          ++done;
          continue;
        }
        tb_cache_.insert(found);
      }
      tb = found.get();  // owned by the cache (or its graveyard) from here
      fe = {key, tb_cache_.version(), tb};
    }
    ++exec_depth_;
    try {
      done += exec_block(*tb, max_steps - done);
    } catch (...) {
      --exec_depth_;
      throw;
    }
    --exec_depth_;
    // Between blocks at top level is a safe point for killed-block cleanup.
    if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  }
  return state_.pc() == kHostReturnAddr;
}

bool Cpu::run_threaded(u64 max_steps) {
  // run_tb's twin for the threaded tier: identical dispatch (host return,
  // mid-IT stepping, helper window, front cache, translate-on-miss), but
  // blocks execute as micro-op streams and quiet control transfers chain
  // through direct links without re-entering this loop.
  u64 done = 0;
  while (done < max_steps) {
    const GuestAddr pc = state_.pc();
    if (pc == kHostReturnAddr) return true;
    if (state_.itstate != 0) {
      step();  // mid-IT continuation (see run_tb)
      ++done;
      continue;
    }
    if (pc >= kHelperWindowBase || is_low_helper(pc)) {
      step();  // helper dispatch (or plain execution in the window)
      ++done;
      continue;
    }
    const u64 key = TbCache::key(pc, state_.thumb);
    TbFrontEntry& fe = tb_front_[static_cast<u32>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - kTbFrontBits))];
    TranslationBlock* tb;
    if (fe.key == key && fe.version == tb_cache_.version()) {
      tb_cache_.count_front_hit();
      tb = fe.tb;
    } else {
      std::shared_ptr<TranslationBlock> found =
          tb_cache_.lookup(pc, state_.thumb);
      if (found == nullptr) {
        found = translate(pc, state_.thumb);
        if (found == nullptr) {
          step();  // undecodable head instruction: fault via the slow path
          ++done;
          continue;
        }
        tb_cache_.insert(found);
      }
      tb = found.get();  // owned by the cache (or its graveyard) from here
      fe = {key, tb_cache_.version(), tb};
    }
    if (tb->threaded == nullptr) ThreadedRun::emit(*this, *tb);
    ++exec_depth_;
    u64 block_done = 0;
    try {
      block_done = ThreadedRun::exec(*this, *tb->threaded, max_steps - done);
    } catch (...) {
      --exec_depth_;
      throw;
    }
    --exec_depth_;
    done += block_done;
    if (block_done == 0) {
      // The remaining budget can't cover even this block's entry: partial
      // replay through the careful per-instruction path.
      ++exec_depth_;
      try {
        done += exec_block(*tb, max_steps - done);
      } catch (...) {
        --exec_depth_;
        throw;
      }
      --exec_depth_;
    }
    // Between blocks at top level is a safe point for killed-block cleanup.
    if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  }
  return state_.pc() == kHostReturnAddr;
}

bool Cpu::run(u64 max_steps) {
  // Safe point: no translation block is mid-execution in any frame, so
  // blocks killed while executing can finally be destroyed.
  if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  if (!use_tb_cache_) return run_interpretive(max_steps);
  if (!threaded_enabled_) return run_tb(max_steps);
  return jit_enabled_ ? run_jit(max_steps) : run_threaded(max_steps);
}

u32 Cpu::call_function(GuestAddr addr, const std::vector<u32>& args) {
  // Re-entrant: guest code may invoke helpers that call back into guest
  // functions (the JNI call chains rely on this).
  CPUState saved = state_;
  ++call_depth_;
  if (call_depth_ > 64) {
    --call_depth_;
    throw GuestFault("guest call depth exceeded");
  }

  const u32 nreg = std::min<u32>(4, static_cast<u32>(args.size()));
  for (u32 i = 0; i < nreg; ++i) state_.regs[i] = args[i];

  u32 sp = state_.sp();
  if (args.size() > 4) {
    const u32 extra = static_cast<u32>(args.size()) - 4;
    sp -= 4 * extra;
    sp &= ~7u;  // AAPCS stack alignment
    for (u32 i = 0; i < extra; ++i) {
      memory_.write32(sp + 4 * i, args[4 + i]);
    }
  } else {
    sp &= ~7u;
  }
  state_.set_sp(sp);
  state_.set_lr(kHostReturnAddr);
  state_.thumb = (addr & 1) != 0;
  state_.set_pc(addr & ~1u);
  // A host-initiated call is still a control transfer into guest code; make
  // it visible so address-triggered hooks (e.g. NDroid's SourcePolicy
  // application at a native method's first instruction) fire uniformly.
  fire_branch_hooks(saved.pc(), state_.pc());

  if (!run(step_budget_)) {
    --call_depth_;
    state_ = saved;
    throw GuestFault("guest call did not return (step budget exhausted)");
  }

  const u32 result = state_.regs[0];
  --call_depth_;
  // Restore everything but keep the result visible to the caller.
  state_ = saved;
  return result;
}

}  // namespace ndroid::arm
