// farmbench: end-to-end and per-layer measurement of the ndroid_farm API.
//
//   farmbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size N] [--expect-digest HEX] [--work-dir DIR]
//   farmbench --workload NAME --seed N [--size N] --digest-only
//
// --trace 0 runs `rounds` timed rounds of the workload's fixed job list
// with set-up repeated between them (setup_s is the set-ups' median), and
// prints the end-to-end metrics: jobs_per_s as the median over rounds, the
// latency percentiles over jobs of each job's median latency across rounds. --trace 1 runs the same rounds
// untraced, then traced (layer_trace.h), then the attached-vs-vanilla
// overhead pass, and prints the per-layer metrics. Every round's outcomes
// are digested and compared with --expect-digest (the value recorded for
// this seed) or, when none is recorded, with a serial run_job reference;
// a mismatching round counts all its jobs as failed.
//
// The last stdout line is the result object; the line before it carries
// the run's details (digests, rounds, tier that ran, prediction checks).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "workloads.h"

using namespace farmbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up repetitions per untraced run; setup_s is their median.
constexpr int kSetups = 7;
// A traced run does this share of the untraced run's rounds per pass.
constexpr std::uint32_t kTraceRoundDivisor = 4;
// Named layer spans must cover at least this share of traced job wall time.
constexpr double kMinSpanCoverage = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::uint32_t size = 0;  // 0 = the workload's default
  std::string expect_digest;
  std::string work_dir = ".bench_build/farmbench-work";
  bool digest_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "farmbench: %s\nusage: farmbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size N] [--expect-digest HEX] "
               "[--work-dir DIR] [--digest-only]\nworkloads:",
               why);
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--digest-only") {
      a.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--size") {
      a.size = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--expect-digest") {
      a.expect_digest = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!(a.seconds > 0) || a.seconds > 3600) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib(bool with_children) {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (with_children) {
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Ordered metric list: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", " : "") + quote(m[i].first) + ": {\"value\": " +
           num(m[i].second.first) + ", \"unit\": " + quote(m[i].second.second) +
           "}";
  }
  return out + "}";
}

struct Gate {
  std::string expect;
  std::string source;  // "recorded" | "serial-reference"
};

Gate resolve_gate(const Args& a, const std::vector<JobSpec>& jobs) {
  if (!a.expect_digest.empty()) return {a.expect_digest, "recorded"};
  return {digest_hex(serial_reference(jobs).leak_digest()), "serial-reference"};
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  const std::uint32_t size = a.size != 0 ? a.size : w->default_size;
  if (a.digest_only) {
    // The value expected_digests.json records for (workload, seed, size).
    const auto jobs = round_jobs(*w, a.seed, size);
    std::printf("%u %s\n", size,
                digest_hex(serial_reference(jobs).leak_digest()).c_str());
    return 0;
  }
  const std::uint32_t rounds = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(a.seconds * w->rounds_per_second)));
  fs::create_directories(a.work_dir);
  const std::string work_dir =
      (fs::path(a.work_dir) / (std::string(w->name) + "-" +
                               std::to_string(::getpid())))
          .string();
  fs::create_directories(work_dir);

  // --- set-up --------------------------------------------------------------
  // The untraced run sets up kSetups times, spread evenly between its rounds
  // so the median sees the same host conditions the rounds do; each set-up
  // replaces the state the following rounds use.
  std::vector<double> setup_s;
  Prepared p;
  auto set_up_timed = [&] {
    p = Prepared{};
    const auto t0 = Clock::now();
    p = set_up(*w, a.seed, size);
    setup_s.push_back(seconds_since(t0));
  };
  set_up_timed();
  const std::size_t jobs_per_round = p.jobs.size();
  const std::uint32_t untraced_rounds =
      a.trace ? std::max<std::uint32_t>(1, rounds / kTraceRoundDivisor) : rounds;
  const int extra_setups = a.trace ? 0 : kSetups - 1;

  // --- untraced rounds -----------------------------------------------------
  struct RoundDigest {
    std::string digest;
    std::uint64_t jobs, failures;
  };
  std::vector<double> jps;
  // Every round runs the same jobs: job_ms[id] holds job id's latency in
  // each round, and its median is that job's latency. Percentiles are over
  // jobs, so a transient host stall during one round does not become the
  // tail.
  std::vector<std::vector<double>> job_ms(jobs_per_round);
  std::vector<RoundDigest> digests;
  std::uint64_t attempted = 0, failed = 0;
  double wall_sum_s = 0, service_sum_ms = 0;
  std::string untraced_text;  // round 0's leak_digest(), for the traced run
  for (std::uint32_t r = 0; r < untraced_rounds; ++r) {
    // Set-up k (1..extra_setups) runs before the first round at or past
    // k / (extra_setups + 1) of the run.
    while (static_cast<int>(setup_s.size()) - 1 < extra_setups &&
           static_cast<std::uint64_t>(setup_s.size()) * untraced_rounds <=
               static_cast<std::uint64_t>(r) * (extra_setups + 1)) {
      set_up_timed();
    }
    const RoundResult rr = run_round(*w, p, work_dir, r);
    jps.push_back(static_cast<double>(rr.report.jobs) / rr.wall_s);
    for (std::size_t id = 0; id < jobs_per_round; ++id) {
      job_ms[id].push_back(rr.latency_ms[id]);
    }
    wall_sum_s += rr.wall_s;
    service_sum_ms += rr.service_ms;
    attempted += rr.report.jobs;
    std::string text = rr.report.leak_digest();
    digests.push_back({digest_hex(text), rr.report.jobs, rr.report.failures});
    if (r == 0) untraced_text = std::move(text);
  }
  while (static_cast<int>(setup_s.size()) - 1 < extra_setups) set_up_timed();
  const Gate gate = resolve_gate(a, p.jobs);
  for (const RoundDigest& d : digests) {
    failed += d.digest == gate.expect ? d.failures : d.jobs;
  }

  Metrics m;
  std::ostringstream detail;
  detail << "{\"workload\": " << quote(w->name) << ", \"seed\": " << a.seed
         << ", \"size\": " << size << ", \"jobs_per_round\": " << jobs_per_round
         << ", \"rounds\": " << untraced_rounds
         << ", \"threads\": " << w->threads << ", \"processes\": " << w->processes
         << ", \"latency_clock\": " << quote(w->latency_clock)
         << ", \"digest_source\": " << quote(gate.source)
         << ", \"expected_digest\": " << quote(gate.expect);
  std::vector<std::string> distinct;
  for (const RoundDigest& d : digests) distinct.push_back(d.digest);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  detail << ", \"round_digests\": [";
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    detail << (i ? ", " : "") << quote(distinct[i]);
  }
  detail << "]";

  if (a.trace == 0) {
    detail << ", \"tier_ran\": " << quote(probe_tier(first_jobs(p.jobs, w->warmup_jobs)))
           << ", \"setup_samples_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      detail << (i ? ", " : "") << num(setup_s[i]);
    }
    detail << "]";
    m.push_back({"jobs_per_s", {median(jps), "1/s"}});
    std::vector<double> per_job;
    for (const std::vector<double>& v : job_ms) per_job.push_back(median(v));
    m.push_back({"job_p50_ms", {percentile(per_job, 0.50), "ms"}});
    m.push_back({"job_p90_ms", {percentile(per_job, 0.90), "ms"}});
    m.push_back({"job_p99_ms", {percentile(per_job, 0.99), "ms"}});
    m.push_back({"setup_s", {median(setup_s), "s"}});
    m.push_back({"peak_rss_mib", {peak_rss_mib(w->processes > 0), "MiB"}});
  } else {
    // --- traced rounds -----------------------------------------------------
    std::vector<JobTrace> traces;
    std::vector<double> traced_jps;
    SummaryCache::Stats cache;
    std::uint32_t mismatched_rounds = 0;
    std::string tier;
    for (std::uint32_t r = 0; r < untraced_rounds; ++r) {
      TracePass pass = traced_round(*w, p, work_dir, r);
      traced_jps.push_back(static_cast<double>(pass.jobs.size()) / pass.wall_s);
      attempted += pass.jobs.size();
      // Byte-equal to run_job's outcomes, and to the gate's digest.
      if (pass.digest != untraced_text || digest_hex(pass.digest) != gate.expect) {
        ++mismatched_rounds;
        failed += pass.jobs.size();
      } else {
        for (const JobTrace& t : pass.jobs) failed += t.ok ? 0 : 1;
      }
      cache.hits += pass.cache.hits;
      cache.misses += pass.cache.misses;
      cache.rebinds += pass.cache.rebinds;
      cache.store_hits += pass.cache.store_hits;
      cache.store_writes += pass.cache.store_writes;
      if (r == 0) tier = pass.tier_ran();
      for (JobTrace& t : pass.jobs) traces.push_back(std::move(t));
    }
    const double overhead = overhead_x(p.jobs);

    const double n = static_cast<double>(traces.size());
    double span[kSpanCount] = {}, wall = 0;
    Counters c;
    for (const JobTrace& t : traces) {
      wall += t.wall_us;
      for (int s = 0; s < kSpanCount; ++s) span[s] += t.span_us[s];
      c.resident_pages += t.c.resident_pages;
      c.bytecodes += t.c.bytecodes;
      c.insns_retired += t.c.insns_retired;
      c.tb_lookups += t.c.tb_lookups;
      c.tb_hits += t.c.tb_hits;
      c.decode_lookups += t.c.decode_lookups;
      c.decode_hits += t.c.decode_hits;
      c.fastpath_insns += t.c.fastpath_insns;
      c.jit_blocks += t.c.jit_blocks;
      c.jit_traced_blocks += t.c.jit_traced_blocks;
      c.jit_fallback_blocks += t.c.jit_fallback_blocks;
      c.insns_traced += t.c.insns_traced;
      c.gate_skips += t.c.gate_skips;
      c.syslib_models += t.c.syslib_models;
      c.source_policies += t.c.source_policies;
      c.jni_exit_restores += t.c.jni_exit_restores;
      c.tainted_bytes += t.c.tainted_bytes;
      c.mallocs += t.c.mallocs;
    }
    auto per_job = [&](double total) { return n > 0 ? total / n : 0.0; };
    auto ratio = [](double num_, double den) { return den > 0 ? num_ / den : 0.0; };
    const double coverage = ratio(wall - span[kOther], wall);
    if (coverage < kMinSpanCoverage) failed += traces.size();

    const double slots = std::max<std::uint32_t>(1, std::max(w->threads, w->processes));
    const double jobs_a = static_cast<double>(jobs_per_round) * untraced_rounds;
    const double ipc_us = (slots * wall_sum_s * 1e6 - service_sum_ms * 1e3) / jobs_a;
    const double service_us = service_sum_ms * 1e3 / jobs_a;
    double dominant = 0;
    bool dominant_ok = false;
    switch (w->kind) {
      case Kind::kAppBatch:
        dominant = ratio(span[kDevice] + span[kAttach] + span[kBuild], wall);
        dominant_ok = dominant > 0.5;
        break;
      case Kind::kMonkeySession:
      case Kind::kCfBench:
        dominant = ratio(span[kDvm], wall);
        dominant_ok = dominant > 0.8;
        break;
      case Kind::kMarketProcsCold:
        dominant = ratio(ipc_us, ipc_us + service_us);
        dominant_ok = ipc_us > service_us;
        break;
    }
    if (w->kind == Kind::kCfBench) {
      // Share of guest run time spent in the native categories (the fixed
      // iteration counts aim for 8/13 of it).
      std::map<std::uint32_t, bool> native;
      for (const JobSpec& j : p.jobs) native[j.id] = j.name.rfind("Native", 0) == 0;
      double native_us = 0;
      for (const JobTrace& t : traces) native_us += native[t.id] ? t.span_us[kDvm] : 0;
      detail << ", \"native_run_share\": " << num(ratio(native_us, span[kDvm]));
    }
    const double rounds_d = static_cast<double>(untraced_rounds);
    detail << ", \"tier_ran\": " << quote(tier)
           << ", \"traced_rounds\": " << untraced_rounds
           << ", \"traced_digest_mismatches\": " << mismatched_rounds
           << ", \"dominant_layer_share\": " << num(dominant)
           << ", \"dominant_prediction_holds\": " << (dominant_ok ? "true" : "false");

    m.push_back({"android.device_us", {per_job(span[kDevice]), "us"}});
    m.push_back({"android.teardown_us", {per_job(span[kTeardown]), "us"}});
    m.push_back({"mem.resident_pages", {per_job(c.resident_pages), "pages"}});
    m.push_back({"core.attach_us", {per_job(span[kAttach]), "us"}});
    m.push_back({"apps.build_us", {per_job(span[kBuild]), "us"}});
    m.push_back({"static.attach_us", {per_job(span[kStatic]), "us"}});
    m.push_back({"static.hit_ratio",
                 {ratio(cache.hits, cache.hits + cache.misses), "1"}});
    m.push_back({"static.rebinds", {per_job(cache.rebinds), "count/job"}});
    m.push_back({"static.store_hits", {cache.store_hits / rounds_d, "count/round"}});
    m.push_back({"static.store_writes", {cache.store_writes / rounds_d, "count/round"}});
    m.push_back({"dvm.call_us", {per_job(span[kDvm]), "us"}});
    m.push_back({"dvm.bytecodes", {per_job(c.bytecodes), "count/job"}});
    m.push_back({"arm.insns_retired", {per_job(c.insns_retired), "count/job"}});
    m.push_back({"arm.ns_per_insn", {ratio(span[kDvm] * 1e3, c.insns_retired), "ns"}});
    m.push_back({"arm.tb_hit_ratio", {ratio(c.tb_hits, c.tb_lookups), "1"}});
    m.push_back({"arm.decode_hit_ratio", {ratio(c.decode_hits, c.decode_lookups), "1"}});
    m.push_back({"arm.fastpath_insns", {per_job(c.fastpath_insns), "count/job"}});
    m.push_back({"arm.jit_blocks", {per_job(c.jit_blocks), "count/job"}});
    m.push_back({"arm.jit_traced_blocks", {per_job(c.jit_traced_blocks), "count/job"}});
    m.push_back({"arm.jit_fallback_blocks", {per_job(c.jit_fallback_blocks), "count/job"}});
    m.push_back({"core.insns_traced", {per_job(c.insns_traced), "count/job"}});
    m.push_back({"core.gate_skips", {per_job(c.gate_skips), "count/job"}});
    m.push_back({"core.syslib_models", {per_job(c.syslib_models), "count/job"}});
    m.push_back({"core.source_policies", {per_job(c.source_policies), "count/job"}});
    m.push_back({"core.jni_exit_restores", {per_job(c.jni_exit_restores), "count/job"}});
    m.push_back({"mem.tainted_bytes", {per_job(c.tainted_bytes), "bytes"}});
    m.push_back({"libc.mallocs", {per_job(c.mallocs), "count/job"}});
    m.push_back({"core.overhead_x", {overhead, "x"}});
    m.push_back({"farm.service_share", {ratio(service_sum_ms * 1e-3, slots * wall_sum_s), "1"}});
    m.push_back({"farm.ipc_us_per_job", {ipc_us, "us"}});
    m.push_back({"harness.other_us", {per_job(span[kOther]), "us"}});
    m.push_back({"trace.span_coverage", {coverage, "1"}});
    m.push_back({"trace.slowdown_x", {ratio(median(jps), median(traced_jps)), "x"}});
    m.push_back({"trace.dominant_share", {dominant, "1"}});
  }
  fs::remove_all(work_dir);  // every round's store, after all timing

  if (a.trace == 1) {
    m.push_back({"fail_ratio", {static_cast<double>(failed) / attempted, "1"}});
  }
  detail << ", \"attempted\": " << attempted << ", \"failed\": " << failed << "}";
  std::printf("{\"detail\": %s}\n", detail.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(m).c_str());
  return 0;
}
