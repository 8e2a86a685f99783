#include "layer_trace.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/monkey.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"
#include "farm/market_app.h"
#include "market/analyzer.h"
#include "static/summary_store.h"

namespace farmbench {

namespace fs = std::filesystem;
using namespace ndroid;
using Clock = std::chrono::steady_clock;
using farm::JobKind;
using farm::JobResult;

namespace {

/// Contiguous spans: mark(s) charges the time since the previous boundary
/// to `s`.
class Spans {
 public:
  Spans() : start_(Clock::now()), last_(start_) {}
  void mark(Span s) {
    const auto now = Clock::now();
    us[s] += std::chrono::duration<double, std::micro>(now - last_).count();
    last_ = now;
  }
  [[nodiscard]] double total_us() const {
    return std::chrono::duration<double, std::micro>(last_ - start_).count();
  }
  double us[kSpanCount] = {};

 private:
  Clock::time_point start_, last_;
};

Counters read_counters(android::Device& d, core::NDroid& nd) {
  Counters c;
  c.resident_pages = d.memory.resident_pages();
  c.bytecodes = d.dvm.bytecodes_executed();
  c.insns_retired = d.cpu.instructions_retired();
  c.tb_lookups = d.cpu.tb_cache().lookups();
  c.tb_hits = d.cpu.tb_cache().hits();
  c.tb_translations = d.cpu.tb_cache().translations();
  c.decode_lookups = d.cpu.decode_lookups();
  c.decode_hits = d.cpu.decode_hits();
  c.fastpath_insns = d.cpu.fastpath_insns();
  c.jit_blocks = d.cpu.jit_blocks_compiled();
  c.jit_traced_blocks = d.cpu.jit_traced_blocks();
  c.jit_fallback_blocks = d.cpu.jit_fallback_blocks();
  c.threaded_links = d.cpu.threaded_links() + d.cpu.threaded_patches();
  c.insns_traced = nd.tracer().instructions_traced();
  c.gate_skips = nd.summary_gate_skips;
  c.syslib_models = nd.syslib().models_applied();
  c.source_policies = nd.dvm_hooks().source_policies_created;
  c.jni_exit_restores = nd.dvm_hooks().jni_exit_restores;
  c.tainted_bytes = nd.taint_engine().map().tainted_bytes();
  c.mallocs = d.libc.mallocs_performed();
  return c;
}

/// Mirrors farm::run_job's per-kind body call for call. `attached` false
/// drives the same app on a vanilla Device (no NDroid, no static attach).
/// Fills `r`'s outcome fields and, when attached and `counters` is set, the
/// layer counters. Throws what run_job would have caught.
void drive(const JobSpec& spec, SummaryCache* cache, bool attached, Spans& sp,
           JobResult& r, Counters* counters) {
  const farm::FarmOptions opts;
  core::NDroidConfig cfg;
  cfg.taint_protection = opts.taint_protection;
  cfg.summary_cache = cache;

  std::optional<android::Device> device;
  std::optional<core::NDroid> nd;
  auto make = [&](std::string app_name) {
    if (app_name.empty()) {
      device.emplace();
    } else {
      device.emplace(std::move(app_name));
    }
    farm::apply_engine(*device, opts.engine);
    sp.mark(kDevice);
    if (attached) nd.emplace(*device, cfg);
    sp.mark(kAttach);
  };
  auto attach_static = [&] {
    if (attached) nd->attach_static_analysis();
    sp.mark(kStatic);
  };

  switch (spec.kind) {
    case JobKind::kLeakCase: {
      apps::LeakScenario (*builder)(android::Device&) = nullptr;
      for (const auto& [name, b] : apps::all_cases()) {
        if (name == spec.name) builder = b;
      }
      if (builder == nullptr) throw std::runtime_error("unknown case " + spec.name);
      sp.mark(kOther);
      make("");
      const apps::LeakScenario scenario = builder(*device);
      sp.mark(kBuild);
      attach_static();
      device->dvm.call(*scenario.entry, {});
      sp.mark(kDvm);
      break;
    }
    case JobKind::kCfBench: {
      make("");
      apps::CfBenchApp app(*device);
      const apps::CfWorkload* workload = app.find(spec.name);
      if (workload == nullptr) {
        throw std::runtime_error("unknown workload " + spec.name);
      }
      sp.mark(kBuild);
      attach_static();
      r.checksum = app.run(*workload, spec.iterations);
      sp.mark(kDvm);
      break;
    }
    case JobKind::kMarketApp: {
      make(spec.name);
      const farm::MarketApp app = farm::build_market_app(*device, spec);
      sp.mark(kBuild);
      attach_static();
      market::AppRecord record;
      record.package = spec.name;
      record.calls_load_library = true;
      record.bundles_native_libs = !spec.native_libs.empty();
      record.native_libs = spec.native_libs;
      switch (market::classify(record)) {
        case market::AppType::kType1: r.market_type = "type1"; break;
        case market::AppType::kType2: r.market_type = "type2"; break;
        case market::AppType::kType3: r.market_type = "type3"; break;
        default: r.market_type = "none"; break;
      }
      sp.mark(kOther);
      u32 checksum = 0;
      u32 arg = 7;
      for (dvm::Method* m : app.natives) {
        const dvm::Slot ret = device->dvm.call(*m, {dvm::Slot{arg, kTaintClear}});
        checksum = checksum * 31 + ret.value;
        arg = checksum | 1;
      }
      r.checksum = checksum;
      sp.mark(kDvm);
      break;
    }
    case JobKind::kRealApp: {
      apps::LeakScenario (*builder)(android::Device&) = nullptr;
      const char* target_class = nullptr;
      if (spec.name == "qqphonebook") {
        builder = &apps::build_qq_phonebook;
        target_class = "Lcom/tencent/tccsync/LoginUtil;";
      } else if (spec.name == "ephone") {
        builder = &apps::build_ephone;
        target_class = "Lcom/vnet/asip/general/general;";
      } else {
        throw std::runtime_error("unknown real app " + spec.name);
      }
      sp.mark(kOther);
      make("com." + spec.name);
      builder(*device);
      sp.mark(kBuild);
      attach_static();
      apps::Monkey monkey(*device, spec.monkey_seed);
      monkey.add_target(device->dvm.find_class(target_class));
      const apps::MonkeyReport report = monkey.run(spec.monkey_events, [&] {
        return static_cast<u32>(device->framework.leaks().size() +
                                (nd ? nd->leaks().size() : 0));
      });
      r.first_leaking_method = report.first_leaking_method;
      sp.mark(kDvm);
      break;
    }
    case JobKind::kFuzz:
      throw std::runtime_error("fuzz jobs are not part of any workload");
  }

  r.framework_leaks = device->framework.leaks();
  if (nd) {
    r.native_leaks = nd->leaks();
    r.summary_gate_skips = nd->summary_gate_skips;
    if (nd->guard() != nullptr) {
      r.tamper_alerts = static_cast<u32>(nd->guard()->alerts().size());
    }
    if (counters != nullptr) *counters = read_counters(*device, *nd);
  }
  sp.mark(kOther);
  nd.reset();
  device.reset();
  sp.mark(kTeardown);
}

std::string digest_line(const JobResult& r) {
  FarmReport one;
  one.results.push_back(r);
  return one.leak_digest();
}

JobTrace trace_job(const JobSpec& spec, SummaryCache* cache) {
  JobTrace t;
  t.id = spec.id;
  JobResult r;
  r.spec = spec;
  Spans sp;
  try {
    drive(spec, cache, /*attached=*/true, sp, r, &t.c);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    sp.mark(kOther);
  }
  t.ok = r.ok;
  t.wall_us = sp.total_us();
  std::copy(std::begin(sp.us), std::end(sp.us), t.span_us);
  t.digest_line = digest_line(r);
  return t;
}

SummaryCache::Stats minus(const SummaryCache::Stats& a,
                          const SummaryCache::Stats& b) {
  SummaryCache::Stats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.rebinds = a.rebinds - b.rebinds;
  d.store_hits = a.store_hits - b.store_hits;
  d.store_writes = a.store_writes - b.store_writes;
  return d;
}

void add(SummaryCache::Stats& into, const SummaryCache::Stats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.rebinds += s.rebinds;
  into.store_hits += s.store_hits;
  into.store_writes += s.store_writes;
}

// --- market-procs-cold: traces cross the process boundary as flat records.

void write_trace(std::ofstream& out, const JobTrace& t,
                 const SummaryCache::Stats& s) {
  const std::uint64_t len = t.digest_line.size();
  out.write(reinterpret_cast<const char*>(&t.id), sizeof t.id);
  out.write(reinterpret_cast<const char*>(&t.ok), sizeof t.ok);
  out.write(reinterpret_cast<const char*>(&t.wall_us), sizeof t.wall_us);
  out.write(reinterpret_cast<const char*>(t.span_us), sizeof t.span_us);
  out.write(reinterpret_cast<const char*>(&t.c), sizeof t.c);
  out.write(reinterpret_cast<const char*>(&s), sizeof s);
  out.write(reinterpret_cast<const char*>(&len), sizeof len);
  out.write(t.digest_line.data(), static_cast<std::streamsize>(len));
}

bool read_trace(std::ifstream& in, JobTrace& t, SummaryCache::Stats& s) {
  std::uint64_t len = 0;
  in.read(reinterpret_cast<char*>(&t.id), sizeof t.id);
  in.read(reinterpret_cast<char*>(&t.ok), sizeof t.ok);
  in.read(reinterpret_cast<char*>(&t.wall_us), sizeof t.wall_us);
  in.read(reinterpret_cast<char*>(t.span_us), sizeof t.span_us);
  in.read(reinterpret_cast<char*>(&t.c), sizeof t.c);
  in.read(reinterpret_cast<char*>(&s), sizeof s);
  in.read(reinterpret_cast<char*>(&len), sizeof len);
  if (!in || len > (1u << 24)) return false;
  t.digest_line.resize(len);
  in.read(t.digest_line.data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(in);
}

/// Body of one forked trace worker: every `stride`-th job from `first`,
/// each with a fresh cache over the shared store (a fork-pool job process
/// starts from the supervisor's cold cache the same way).
int trace_worker(const std::vector<JobSpec>& jobs, std::size_t first,
                 std::size_t stride, const fs::path& store_dir,
                 const fs::path& out_path) {
  try {
    static_analysis::SummaryStore store(store_dir.string());
    std::ofstream out(out_path, std::ios::binary);
    for (std::size_t i = first; i < jobs.size(); i += stride) {
      SummaryCache cache;
      cache.set_store(&store);
      const JobTrace t = trace_job(jobs[i], &cache);
      write_trace(out, t, cache.stats());
    }
    out.flush();
    return out ? 0 : 1;
  } catch (...) {
    return 1;
  }
}

void traced_processes(const std::vector<JobSpec>& jobs, std::uint32_t procs,
                      const fs::path& dir, TracePass& pass) {
  const fs::path store = dir / "store";
  std::fflush(nullptr);  // children must not re-flush inherited buffers
  std::vector<pid_t> pids;
  for (std::uint32_t k = 0; k < procs; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::_exit(trace_worker(jobs, k, procs, store,
                           dir / ("trace-" + std::to_string(k) + ".bin")));
    }
    pids.push_back(pid);
  }
  bool clean = true;
  for (const pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!clean) throw std::runtime_error("trace worker process failed");
  for (std::uint32_t k = 0; k < procs; ++k) {
    std::ifstream in(dir / ("trace-" + std::to_string(k) + ".bin"),
                     std::ios::binary);
    for (;;) {
      JobTrace t;
      SummaryCache::Stats s;
      if (in.peek() == std::char_traits<char>::eof()) break;
      if (!read_trace(in, t, s)) throw std::runtime_error("torn trace record");
      add(pass.cache, s);
      pass.jobs.push_back(std::move(t));
    }
  }
}

}  // namespace

std::string TracePass::tier_ran() const {
  Counters sum;
  for (const JobTrace& t : jobs) {
    sum.jit_blocks += t.c.jit_blocks;
    sum.jit_traced_blocks += t.c.jit_traced_blocks;
    sum.threaded_links += t.c.threaded_links;
    sum.tb_translations += t.c.tb_translations;
  }
  if (sum.jit_blocks > 0) return sum.jit_traced_blocks > 0 ? "jit+traced" : "jit";
  if (sum.threaded_links > 0) return "threaded";
  if (sum.tb_translations > 0) return "tb";
  return "interp";
}

TracePass traced_round(const Workload& w, Prepared& p,
                       const std::string& work_dir, std::uint32_t round) {
  TracePass pass;
  pass.jobs.reserve(p.jobs.size());
  const auto before = p.cache ? p.cache->stats() : SummaryCache::Stats{};
  const auto t0 = Clock::now();
  if (w.processes > 0) {
    const fs::path dir = fs::path(work_dir) / ("trace-" + std::to_string(round));
    fs::remove_all(dir);
    fs::create_directories(dir);
    traced_processes(p.jobs, w.processes, dir, pass);
  } else if (w.threads > 0) {
    pass.jobs.resize(p.jobs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < p.jobs.size();) {
        pass.jobs[i] = trace_job(p.jobs[i], p.cache.get());
      }
    };
    std::vector<std::thread> threads;
    for (std::uint32_t k = 0; k < w.threads; ++k) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  } else {
    for (const JobSpec& spec : p.jobs) {
      pass.jobs.push_back(trace_job(spec, p.cache.get()));
    }
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (p.cache) pass.cache = minus(p.cache->stats(), before);
  std::sort(pass.jobs.begin(), pass.jobs.end(),
            [](const JobTrace& a, const JobTrace& b) { return a.id < b.id; });
  for (const JobTrace& t : pass.jobs) pass.digest += t.digest_line;
  return pass;
}

std::string probe_tier(const std::vector<JobSpec>& jobs) {
  TracePass pass;
  SummaryCache cache;
  for (const JobSpec& spec : jobs) pass.jobs.push_back(trace_job(spec, &cache));
  return pass.tier_ran();
}

double overhead_x(const std::vector<JobSpec>& jobs) {
  SummaryCache cache;
  double log_sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    double run_us[2] = {};  // [vanilla, attached]
    for (int k = 0; k < 2; ++k) {
      // Alternate which side goes first so warmth favours neither.
      const bool attached = (k == 0) == (i % 2 == 0);
      JobResult r;
      Spans sp;
      drive(jobs[i], &cache, attached, sp, r, nullptr);
      run_us[attached ? 1 : 0] = sp.us[kDvm];
    }
    if (run_us[0] > 0 && run_us[1] > 0) {
      log_sum += std::log(run_us[1] / run_us[0]);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace farmbench
