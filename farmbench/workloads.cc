#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "farm/providers.h"

namespace farmbench {

namespace fs = std::filesystem;
using ndroid::farm::JobResult;
using Clock = std::chrono::steady_clock;

namespace {

// Table I cases plus this many seeded market apps form app-batch's base set:
// enough distinct apps that the latency tail is a property of the §III
// library mix, not of which few apps one seed happened to draw.
constexpr std::uint32_t kAppBatchMarketApps = 395;
// Monkey events per monkey-session job (the paper's §VI drive, scaled).
constexpr std::uint32_t kMonkeyEvents = 200;

// Fixed CF-Bench iteration counts, one per category, sized on the
// reference host so every category's guest run takes about 3 ms with
// NDroid attached: no category dominates, and the eight native categories
// carry about 8/13 of run time. (A shared count would make Java Memory
// Read/Write ~70x Native MIPS.)
struct CfCount {
  const char* name;
  std::uint32_t iterations;
};
constexpr CfCount kCfCounts[] = {
    {"Native MIPS", 220000},       {"Java MIPS", 90000},
    {"Native MSFLOPS", 62000},     {"Java MSFLOPS", 150000},
    {"Native MDFLOPS", 250000},    {"Java MDFLOPS", 150000},
    {"Native MALLOCS", 25000},     {"Native Memory Read", 85000},
    {"Native Memory Write", 9000}, {"Java Memory Read", 2500},
    {"Java Memory Write", 2500},   {"Native Disk Read", 36000},
    {"Native Disk Write", 22000},
};

const std::vector<Workload> kWorkloads = {
    {Kind::kAppBatch, "app-batch", 3, 10.0, 5 + kAppBatchMarketApps, 2, 0,
     "in-worker service time (JobResult::timing setup+static+run); "
     "run_farm exposes no per-job clock outside the worker"},
    {Kind::kMonkeySession, "monkey-session", 500, 0.6, 16, 0, 0,
     "harness steady_clock around each farm::run_job call"},
    {Kind::kCfBench, "cfbench-fig10", 8, 3.0, 13, 0, 0,
     "harness steady_clock around each farm::run_job call"},
    {Kind::kMarketProcsCold, "market-procs-cold", 6000, 0.28, 32, 0, 2,
     "in-child service time (JobResult::timing); excludes the fork and "
     "the result-frame round trip"},
};

/// Seeded Fisher-Yates over the issue order (ids stay canonical). Uses the
/// farm's own splitmix mix so the order is identical on every platform.
void shuffle_issue_order(std::vector<JobSpec>& jobs, std::uint64_t seed) {
  for (std::size_t i = jobs.size(); i > 1; --i) {
    const std::size_t j = ndroid::farm::derive_seed(
                              seed, static_cast<std::uint32_t>(i), 0xF00D) %
                          i;
    std::swap(jobs[i - 1], jobs[j]);
  }
}

void number(std::vector<JobSpec>& jobs) {
  for (std::uint32_t i = 0; i < jobs.size(); ++i) jobs[i].id = i;
}

double service_ms(const JobResult& r) {
  return r.timing.setup_ms + r.timing.static_ms + r.timing.run_ms;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

const std::vector<Workload>& all_workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

FarmOptions farm_options(const Workload& w) {
  FarmOptions o;  // default engine tier, taint protection, zygote template
  o.workers = w.threads;
  o.processes = w.processes;
  return o;
}

std::vector<JobSpec> round_jobs(const Workload& w, std::uint64_t seed,
                                std::uint32_t size) {
  std::vector<JobSpec> base;
  switch (w.kind) {
    case Kind::kAppBatch:
      base = ndroid::farm::table1_jobs();
      for (JobSpec& j : ndroid::farm::market_jobs(kAppBatchMarketApps, seed)) {
        base.push_back(std::move(j));
      }
      break;
    case Kind::kMonkeySession:
      base = ndroid::farm::real_app_jobs(kMonkeyEvents, seed);
      break;
    case Kind::kCfBench:
      for (const CfCount& c : kCfCounts) {
        JobSpec j;
        j.kind = ndroid::farm::JobKind::kCfBench;
        j.name = c.name;
        j.iterations = c.iterations;
        base.push_back(std::move(j));
      }
      break;
    case Kind::kMarketProcsCold:
      base = ndroid::farm::market_jobs(size, seed);
      break;
  }
  number(base);
  // repeat_jobs renumbers and derives a fresh monkey seed per (id, rep).
  std::vector<JobSpec> jobs = w.kind == Kind::kMarketProcsCold
                                  ? std::move(base)
                                  : ndroid::farm::repeat_jobs(base, size);
  shuffle_issue_order(jobs, seed);
  return jobs;
}

std::vector<JobSpec> first_jobs(const std::vector<JobSpec>& round,
                                std::size_t n) {
  std::vector<JobSpec> out;
  for (const JobSpec& j : round) {
    if (j.id < n) out.push_back(j);
  }
  std::sort(out.begin(), out.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.id < b.id; });
  return out;
}

Prepared set_up(const Workload& w, std::uint64_t seed, std::uint32_t size) {
  Prepared p;
  p.jobs = round_jobs(w, seed, size);
  FarmOptions opts = farm_options(w);
  if (w.kind != Kind::kMarketProcsCold) {
    p.cache = std::make_unique<SummaryCache>();
    opts.cache = p.cache.get();
  }
  // Warm-up through the workload's own scheduler: lazy tables, allocator
  // arenas, code pages, and (app-batch) every distinct app's summaries.
  // market-procs-cold warms without a store, so each timed round's fresh
  // store stays cold and no store files need deleting.
  ndroid::farm::run_farm(first_jobs(p.jobs, w.warmup_jobs), opts);
  return p;
}

RoundResult run_round(const Workload& w, Prepared& p,
                      const std::string& work_dir, std::uint32_t round) {
  RoundResult rr;
  FarmOptions opts = farm_options(w);
  rr.latency_ms.resize(p.jobs.size());

  if (w.threads == 0 && w.processes == 0) {
    // Serial: the harness clock times each run_job call.
    const auto t0 = Clock::now();
    for (const JobSpec& spec : p.jobs) {
      const auto a = Clock::now();
      JobResult r = ndroid::farm::run_job(spec, p.cache.get(), opts);
      rr.latency_ms[spec.id] = ms_between(a, Clock::now());
      ndroid::farm::aggregate_result(rr.report, std::move(r));
    }
    rr.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    std::sort(rr.report.results.begin(), rr.report.results.end(),
              [](const JobResult& a, const JobResult& b) {
                return a.spec.id < b.spec.id;
              });
  } else {
    fs::path store;
    if (w.kind == Kind::kMarketProcsCold) {
      store = fs::path(work_dir) / ("store-" + std::to_string(round));
      fs::remove_all(store);
      opts.store_dir = store.string();
    } else {
      opts.cache = p.cache.get();
    }
    const auto t0 = Clock::now();
    rr.report = ndroid::farm::run_farm(p.jobs, opts);
    rr.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    for (const JobResult& r : rr.report.results) {
      rr.latency_ms[r.spec.id] = service_ms(r);
    }
  }
  for (const JobResult& r : rr.report.results) rr.service_ms += service_ms(r);
  return rr;
}

FarmReport serial_reference(const std::vector<JobSpec>& jobs) {
  FarmReport report;
  SummaryCache cache;
  const FarmOptions opts;
  for (const JobSpec& spec : jobs) {
    ndroid::farm::aggregate_result(report,
                                   ndroid::farm::run_job(spec, &cache, opts));
  }
  std::sort(report.results.begin(), report.results.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.spec.id < b.spec.id;
            });
  return report;
}

std::string digest_hex(const std::string& leak_digest) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : leak_digest) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace farmbench
