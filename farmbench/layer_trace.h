// The traced run: re-drives each job through the same public calls
// farm::run_job makes (Device ctor + apply_engine, NDroid ctor, the app
// builder, attach_static_analysis, Dvm::call / Monkey::run /
// CfBenchApp::run) and times each call from outside the program. Spans are
// contiguous — each boundary is one clock read that ends one span and
// starts the next — and kept in memory per job id until the run ends.
//
// Outside the program the time inside dvm.call cannot be split into DVM vs
// JNI vs native self time; the counters (bytecodes, retired guest
// instructions, traced instructions) are the only attribution there.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace farmbench {

enum Span : int {
  kDevice,    // android::Device ctor + farm::apply_engine
  kAttach,    // core::NDroid ctor
  kBuild,     // leak-case / market / real-app builder, CfBenchApp ctor
  kStatic,    // NDroid::attach_static_analysis
  kDvm,       // Dvm::call / Monkey::run / CfBenchApp::run
  kTeardown,  // NDroid + Device destructors
  kOther,     // harness glue: lookups, market classify, outcome collection
  kSpanCount,
};

/// Per-job layer counters, read from the public accessors after the run.
struct Counters {
  std::uint64_t resident_pages = 0;
  std::uint64_t bytecodes = 0;
  std::uint64_t insns_retired = 0;
  std::uint64_t tb_lookups = 0, tb_hits = 0;
  std::uint64_t decode_lookups = 0, decode_hits = 0;
  std::uint64_t fastpath_insns = 0;
  std::uint64_t jit_blocks = 0, jit_traced_blocks = 0, jit_fallback_blocks = 0;
  std::uint64_t threaded_links = 0, tb_translations = 0;
  std::uint64_t insns_traced = 0;
  std::uint64_t gate_skips = 0;
  std::uint64_t syslib_models = 0;
  std::uint64_t source_policies = 0;
  std::uint64_t jni_exit_restores = 0;
  std::uint64_t tainted_bytes = 0;
  std::uint64_t mallocs = 0;
};

struct JobTrace {
  std::uint32_t id = 0;
  bool ok = false;
  double wall_us = 0;  // first call .. end of teardown
  double span_us[kSpanCount] = {};
  Counters c;
  std::string digest_line;  // this job's FarmReport::leak_digest() line
};

struct TracePass {
  std::vector<JobTrace> jobs;  // sorted by id
  double wall_s = 0;
  SummaryCache::Stats cache;  // summary activity over the pass
  std::string digest;         // concatenated digest lines, id order

  /// Execution tier the counters show actually ran (not the configured
  /// option): "jit+traced", "jit", "threaded", "tb" or "interp".
  [[nodiscard]] std::string tier_ran() const;
};

/// One traced round at the workload's concurrency: serial, two threads
/// over the shared cache (app-batch), or two forked worker processes over
/// a fresh shared on-disk store, each job with its own cache as in the fork
/// pool (market-procs-cold; its files stay under `work_dir` for the caller
/// to remove).
TracePass traced_round(const Workload& w, Prepared& p,
                       const std::string& work_dir, std::uint32_t round);

/// Tier that ran for `jobs`, traced serially (the untraced run's probe).
std::string probe_tier(const std::vector<JobSpec>& jobs);

/// The Fig. 10 ratio generalised to every job: geometric mean over the
/// round's jobs of the NDroid-attached run phase over the same run phase on
/// a vanilla Device, each pair timed back to back on one thread.
double overhead_x(const std::vector<JobSpec>& jobs);

}  // namespace farmbench
