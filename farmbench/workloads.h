// The four farm benchmark workloads: fixed job lists built from
// (seed, size), their set-up, and one untimed-by-the-program round of each
// driven through the public ndroid_farm API exactly as a farm user calls it.
//
// A run is `rounds` repetitions of the same round. The round count is the
// requested seconds times a per-workload constant fixed below (never
// measured at run time), so the amount of work is a function of the
// arguments alone and a faster program finishes sooner instead of doing
// more. Each round is its own FarmReport, so peak RSS depends on the round
// size and not on how many rounds ran.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "farm/farm.h"

namespace farmbench {

using ndroid::farm::FarmOptions;
using ndroid::farm::FarmReport;
using ndroid::farm::JobSpec;
using ndroid::static_analysis::SummaryCache;

enum class Kind { kAppBatch, kMonkeySession, kCfBench, kMarketProcsCold };

struct Workload {
  Kind kind;
  const char* name;
  /// Round size at the default --size: repetitions of the base set
  /// (app-batch, monkey-session, cfbench-fig10) or apps (market-procs-cold).
  std::uint32_t default_size;
  /// Rounds per requested second, fixed from the reference host's round
  /// time (4-CPU x86-64, Release); converts --seconds into a round count.
  double rounds_per_second;
  /// Set-up's warm-up: the round's first jobs by id. On app-batch these are
  /// exactly the distinct apps, so the pass also pre-warms the cache.
  std::uint32_t warmup_jobs;
  std::uint32_t threads;    // FarmOptions::workers (0 = serial run_job)
  std::uint32_t processes;  // FarmOptions::processes
  /// Which latency source the percentiles use (stated in every result).
  const char* latency_clock;
};

/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);
const std::vector<Workload>& all_workloads();

/// The options every job of the workload runs with: the program's default
/// engine tier and taint protection, the workload's concurrency.
FarmOptions farm_options(const Workload& w);

/// The round's fixed job list. Ids are 0..n-1 in canonical order (results
/// and digests sort by id); the seed also fixes the order jobs are issued.
std::vector<JobSpec> round_jobs(const Workload& w, std::uint64_t seed,
                                std::uint32_t size);

/// The round's first `n` jobs by id (ids are rep-major, so n = base size
/// gives each distinct app once).
std::vector<JobSpec> first_jobs(const std::vector<JobSpec>& round,
                                std::size_t n);

/// State the timed rounds share, built by set-up.
struct Prepared {
  std::vector<JobSpec> jobs;
  std::unique_ptr<SummaryCache> cache;  // null on market-procs-cold
};

/// Everything before the first timed job: corpus generation, summary-cache
/// pre-warm and warm-up jobs.
Prepared set_up(const Workload& w, std::uint64_t seed, std::uint32_t size);

struct RoundResult {
  double wall_s = 0;
  std::vector<double> latency_ms;  // indexed by job id (see latency_clock)
  double service_ms = 0;           // sum of JobResult::timing phases
  FarmReport report;               // results sorted by job id
};

/// Runs one round. market-procs-cold gets a fresh store directory under
/// `work_dir`; the caller removes `work_dir` when the run ends (unlinking
/// fsync'd files is slow on filesystems mounted with online discard, so it
/// stays out of the rounds).
RoundResult run_round(const Workload& w, Prepared& p,
                      const std::string& work_dir, std::uint32_t round);

/// Serial run_job over `jobs` with a fresh cache: the topology-independent
/// reference the digest gate falls back to for unrecorded seeds.
FarmReport serial_reference(const std::vector<JobSpec>& jobs);

/// FNV-1a 64 over FarmReport::leak_digest(), as 16 hex digits.
std::string digest_hex(const std::string& leak_digest);

}  // namespace farmbench
