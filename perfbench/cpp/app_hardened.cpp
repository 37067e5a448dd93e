// app-hardened: a hardened application's normal operation (closed loop, one
// thread).
//
// One sample = one app run: spawn a demo executable through Toolkit::spawn
// with profiling + robustness + security wrappers preloaded (a repair wrapper
// too in a seeded quarter of runs) and a flight recorder attached, then
// execute a seeded trace of about 1000 string, memory, conversion, stdio and
// math calls. About 1% of the calls carry a faulty argument (NULL, overlong
// source, freed pointer) that a wrapper must catch. The injector runs once,
// in setup, to derive the campaigns the robustness wrappers enforce.
//
// The traced run replays each trace's benign calls on an unwrapped process
// and under each wrapper family alone, so every family's added cost per
// call is measured against the same calls.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/toolkit.hpp"
#include "gen/repair_policy.hpp"
#include "incident/recorder.hpp"
#include "wrappers/wrappers.hpp"

using namespace healers;
using simlib::SimValue;

namespace perfbench {
namespace {

constexpr const char* kLibs[] = {"libsimc.so.1", "libsimio.so.1", "libsimm.so.1"};
constexpr double kTailQ = 0.99;
constexpr std::size_t kPerChunk = 1100;  // > 10 samples beyond p99 in every chunk
constexpr std::size_t kMinSamples = 3 * kPerChunk;
constexpr std::size_t kMaxSamples = 400'000;
constexpr std::size_t kTraces = 32;        // distinct seeded traces per run
constexpr std::size_t kOpsPerTrace = 1000;
constexpr std::size_t kReplayEvery = 8;    // traced: wrapper replays on every 8th run
constexpr std::uint64_t kCampaignSeed = 2003;
constexpr std::int64_t kMaxLen = 16;  // largest size argument of a benign call

// The calls a trace is made of. Benign kinds first; the faulty kinds carry
// an argument a wrapper must reject or repair.
enum class Kind : std::uint8_t {
  kStrlen, kStrcmp, kStrncmp, kStrchr, kStrcpy, kStrncpy, kMemcpy, kMemset, kMemcmp,
  kAtoi, kStrtol, kAtof, kMallocFree, kSnprintf, kFputs, kFputc, kFtell,
  kSqrt, kSin, kPow, kFloor, kIsalpha, kToupper, kAbs,
  kBenignKinds,
  kFaultStrlenNull = kBenignKinds, kFaultStrcpyOverlong, kFaultDoubleFree, kFaultAtoiNull,
};

struct Call {
  Kind kind;
  std::uint8_t a;
  std::uint8_t b;
  std::uint16_t n;
  [[nodiscard]] bool faulty() const noexcept { return kind >= Kind::kBenignKinds; }
};

using Trace = std::vector<Call>;

const char* const kStrings[] = {"hello world", "HEALERS toolkit", "12345", "-42", "3.25",
                                "the quick brown fox", "a,b,c", "robust api"};
constexpr std::size_t kStringCount = sizeof(kStrings) / sizeof(kStrings[0]);
constexpr std::size_t kNumeric[] = {2, 3, 4};  // indices of strings that parse as numbers

Trace make_trace(std::uint64_t seed) {
  Trace trace;
  trace.reserve(kOpsPerTrace);
  for (std::size_t i = 0; i < kOpsPerTrace; ++i) {
    const std::uint64_t r = mix(seed, i);
    Call call{};
    if (r % 100 == 0) {  // 1% faulty arguments
      const auto k = static_cast<std::size_t>((r >> 8) % 4);
      call.kind = static_cast<Kind>(static_cast<std::size_t>(Kind::kBenignKinds) + k);
    } else {
      call.kind = static_cast<Kind>((r >> 8) % static_cast<std::size_t>(Kind::kBenignKinds));
    }
    call.a = static_cast<std::uint8_t>((r >> 16) % kStringCount);
    call.b = static_cast<std::uint8_t>((r >> 24) % kStringCount);
    call.n = static_cast<std::uint16_t>((r >> 32) % 1000);
    trace.push_back(call);
  }
  return trace;
}

Trace benign_only(const Trace& trace) {
  Trace out;
  for (const Call& call : trace) {
    if (!call.faulty()) out.push_back(call);
  }
  return out;
}

linker::Executable demo_executable() {
  linker::Executable exe;
  exe.name = "perfapp";
  exe.needed = {kLibs[0], kLibs[1], kLibs[2]};
  exe.undefined = {"strlen", "strcmp", "strncmp", "strchr", "strcpy",  "strncpy", "memcpy",
                   "memset", "memcmp", "atoi",    "strtol", "atof",    "malloc",  "free",
                   "snprintf", "fopen", "fputs",  "fputc",  "ftell",   "sqrt",    "sin",
                   "pow",    "floor",   "isalpha", "toupper", "abs"};
  return exe;
}

// The app's own data: strings in rodata, a fixed-size static buffer, and
// heap buffers it allocates at start. `freed` sits between two live chunks
// and every later allocation is larger, so its chunk is never reused.
struct Env {
  mem::Addr str[kStringCount] = {};
  std::size_t len[kStringCount] = {};
  mem::Addr longstr = 0, fmt = 0;
  mem::Addr dst = 0, freed = 0, small = 0, file = 0;
};

Env app_start(linker::Process& proc) {
  Env env;
  for (std::size_t i = 0; i < kStringCount; ++i) {
    env.str[i] = proc.rodata_cstring(kStrings[i]);
    env.len[i] = std::strlen(kStrings[i]);
  }
  env.longstr = proc.rodata_cstring("this source is far longer than eight bytes");
  env.fmt = proc.rodata_cstring("%d");
  env.small = proc.scratch(8, mem::Perm::kReadWrite, "small");  // a static char[8]
  // fopen allocates the FILE object itself, so it runs before `freed` is
  // released; the guard chunk keeps `freed` from coalescing.
  env.file = proc.call("fopen", {SimValue::ptr(proc.rodata_cstring("/perf.log")),
                                 SimValue::ptr(proc.rodata_cstring("w"))})
                 .as_ptr();
  env.dst = proc.call("malloc", {SimValue::integer(128)}).as_ptr();
  env.freed = proc.call("malloc", {SimValue::integer(32)}).as_ptr();
  (void)proc.call("malloc", {SimValue::integer(64)});
  proc.call("free", {SimValue::ptr(env.freed)});
  return env;
}

std::int64_t sign(std::int64_t v) { return (v > 0) - (v < 0); }

std::int64_t bits(double v) {
  std::int64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

// Executes one benign call and returns its result in a form comparable
// across processes (pointer results relative to the argument they echo).
// Size arguments stay within [1, 16], the range the derived robust API
// admits for the mem*/strn* length parameters: benign calls are calls the
// robustness wrapper passes through.
std::int64_t run_benign(linker::Process& proc, const Env& env, const Call& c) {
  const auto P = [](mem::Addr a) { return SimValue::ptr(a); };
  const auto I = [](std::int64_t v) { return SimValue::integer(v); };
  const auto F = [](double v) { return SimValue::fp(v); };
  const mem::Addr sa = env.str[c.a];
  const mem::Addr sb = env.str[c.b];
  switch (c.kind) {
    case Kind::kStrlen: return proc.call("strlen", {P(sa)}).as_int();
    case Kind::kStrcmp: return sign(proc.call("strcmp", {P(sa), P(sb)}).as_int());
    case Kind::kStrncmp: return sign(proc.call("strncmp", {P(sa), P(sb), I(1 + c.n % 8)}).as_int());
    case Kind::kStrchr: {
      const mem::Addr hit = proc.call("strchr", {P(sa), I('a' + c.n % 26)}).as_ptr();
      return hit == 0 ? -1 : static_cast<std::int64_t>(hit - sa);
    }
    case Kind::kStrcpy: return proc.call("strcpy", {P(env.dst), P(sa)}).as_ptr() == env.dst;
    case Kind::kStrncpy:
      return proc.call("strncpy", {P(env.dst), P(sa), I(1 + c.n % kMaxLen)}).as_ptr() == env.dst;
    case Kind::kMemcpy:
      return proc.call("memcpy", {P(env.dst), P(sa), I(std::min<std::int64_t>(env.len[c.a] + 1, kMaxLen))})
                 .as_ptr() == env.dst;
    case Kind::kMemset:
      return proc.call("memset", {P(env.dst), I(c.n & 0xff), I(1 + c.n % kMaxLen)}).as_ptr() == env.dst;
    case Kind::kMemcmp: {
      const auto n = std::min<std::int64_t>(std::min(env.len[c.a], env.len[c.b]) + 1, kMaxLen);
      return sign(proc.call("memcmp", {P(sa), P(sb), I(n)}).as_int());
    }
    case Kind::kAtoi:
      return proc.call("atoi", {P(env.str[kNumeric[c.n % 3]])}).as_int();
    case Kind::kStrtol:
      return proc.call("strtol", {P(env.str[kNumeric[c.n % 3]]), P(0), I(10)}).as_int();
    case Kind::kAtof: return bits(proc.call("atof", {P(env.str[kNumeric[c.n % 3]])}).as_double());
    case Kind::kMallocFree: {
      const SimValue p = proc.call("malloc", {I(64 + c.n % 192)});
      proc.call("free", {p});
      return p.as_ptr() != 0;
    }
    case Kind::kSnprintf:
      return proc.call("snprintf", {P(env.dst), I(kMaxLen), P(env.fmt), I(c.n)}).as_int();
    case Kind::kFputs: return proc.call("fputs", {P(sa), P(env.file)}).as_int() >= 0;
    case Kind::kFputc: return proc.call("fputc", {I('a' + c.n % 26), P(env.file)}).as_int();
    case Kind::kFtell: return proc.call("ftell", {P(env.file)}).as_int();
    case Kind::kSqrt: return bits(proc.call("sqrt", {F(c.n)}).as_double());
    case Kind::kSin: return bits(proc.call("sin", {F(c.n * 0.01)}).as_double());
    case Kind::kPow: return bits(proc.call("pow", {F(1.5), F(c.n % 10)}).as_double());
    case Kind::kFloor: return bits(proc.call("floor", {F(c.n * 0.37)}).as_double());
    case Kind::kIsalpha: return proc.call("isalpha", {I(' ' + c.n % 90)}).as_int() != 0;
    case Kind::kToupper: return proc.call("toupper", {I('a' + c.n % 26)}).as_int();
    case Kind::kAbs: return proc.call("abs", {I(c.n - 500)}).as_int();
    default: return 0;
  }
}

// Executes one faulty call under supervision; false when the process did
// not survive it (a wrapper failed to contain the fault).
bool run_fault(linker::Process& proc, const Env& env, const Call& c) {
  linker::CallOutcome outcome;
  switch (c.kind) {
    case Kind::kFaultStrlenNull: outcome = proc.supervised_call("strlen", {SimValue::null()}); break;
    case Kind::kFaultStrcpyOverlong:
      outcome = proc.supervised_call("strcpy", {SimValue::ptr(env.small), SimValue::ptr(env.longstr)});
      break;
    case Kind::kFaultDoubleFree:
      outcome = proc.supervised_call("free", {SimValue::ptr(env.freed)});
      break;
    case Kind::kFaultAtoiNull: outcome = proc.supervised_call("atoi", {SimValue::null()}); break;
    default: return false;
  }
  return !outcome.robustness_failure();
}

struct Setup {
  std::unique_ptr<core::Toolkit> toolkit;
  std::vector<injector::CampaignResult> campaigns;  // per kLibs entry
  std::vector<linker::InterpositionPtr> robustness;  // shared: stateless checks
  std::shared_ptr<const gen::RepairPolicy> repair_policy;
  std::vector<Trace> traces;
  std::vector<std::vector<std::int64_t>> expected;  // benign results, unwrapped
};

// Wrapper families a process can be built with.
enum Family : unsigned {
  kProfiling = 1, kRobustness = 2, kSecurity = 4, kRepair = 8,
  kHardened = kProfiling | kRobustness | kSecurity,
};

// Per-process wrapper instances, in LD_PRELOAD order (outermost first).
std::vector<linker::InterpositionPtr> instantiate(const Setup& setup, unsigned families) {
  std::vector<linker::InterpositionPtr> preloads;
  const core::Toolkit& tk = *setup.toolkit;
  if (families & kProfiling) {
    for (const char* lib : kLibs) preloads.push_back(tk.profiling_wrapper(lib).value());
  }
  if (families & kRepair) {
    gen::WrapperBuilder builder("repair-wrapper");
    builder.add(gen::prototype_gen())
        .add(wrappers::repair_gen(setup.repair_policy))
        .add(gen::call_counter_gen())
        .add(gen::caller_gen());
    preloads.push_back(builder.build(*tk.library(kLibs[0]), &setup.campaigns[0]).value());
  }
  if (families & kRobustness) {
    for (const auto& w : setup.robustness) preloads.push_back(w);
  }
  if (families & kSecurity) preloads.push_back(tk.security_wrapper(kLibs[0]).value());
  return preloads;
}

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.toolkit = std::make_unique<core::Toolkit>();
  for (const char* lib : kLibs) {
    injector::InjectorConfig config;
    config.seed = kCampaignSeed;
    config.jobs = static_cast<int>(kPoolThreads);
    s.campaigns.push_back(s.toolkit->derive_robust_api(lib, config).value());
  }
  for (std::size_t l = 0; l < 3; ++l) {
    s.robustness.push_back(s.toolkit->robustness_wrapper(kLibs[l], s.campaigns[l]).value());
  }
  s.repair_policy = std::make_shared<const gen::RepairPolicy>(
      gen::derive_repair_policy(s.campaigns[0], *s.toolkit->library(kLibs[0])).value());
  for (std::size_t t = 0; t < kTraces; ++t) {
    s.traces.push_back(make_trace(mix(seed, 1000 + t)));
    auto proc = s.toolkit->spawn(demo_executable());
    const Env env = app_start(*proc);
    std::vector<std::int64_t> results;
    for (const Call& call : s.traces.back()) {
      if (!call.faulty()) results.push_back(run_benign(*proc, env, call));
    }
    s.expected.push_back(std::move(results));
  }
  return s;
}

struct RunStats {
  std::uint64_t calls = 0;
  std::uint64_t faults = 0;
  std::uint64_t detections = 0;
  std::uint64_t repairs = 0;
  std::uint64_t mismatched_results = 0;
  std::uint64_t uncaught_faults = 0;  // fault with detections+repairs != 1
  std::uint64_t crashed_faults = 0;
  std::uint64_t benign_calls = 0;
};

// One app run; returns the call phase (every call after start-up) as an
// interval of calls. Benign calls are batched into one span between faults.
Interval app_run(const Setup& setup, std::size_t sample, bool repair, Tracer& tracer,
                 RunStats& stats) {
  Span root(tracer, "app-hardened.sample", sample);
  const std::size_t t = sample % kTraces;
  std::vector<linker::InterpositionPtr> preloads;
  {
    Span span(tracer, "wrappers.instantiate");
    preloads = instantiate(setup, kHardened | (repair ? kRepair : 0u));
  }
  std::unique_ptr<linker::Process> proc;
  {
    Span span(tracer, "linker.spawn");
    proc = setup.toolkit->spawn(demo_executable(), std::move(preloads));
  }
  incident::FlightRecorder recorder;
  recorder.set_process_name("perfapp");
  proc->set_observer(&recorder);
  Env env;
  {
    Span span(tracer, "linker.app_start");
    env = app_start(*proc);
  }
  const std::vector<std::int64_t>& expected = setup.expected[t];
  const Trace& trace = setup.traces[t];
  const std::uint64_t calls0 = proc->calls_dispatched();
  std::size_t next_expected = 0;
  const IntervalTimer calls_timer;
  std::size_t i = 0;
  while (i < trace.size()) {
    if (!trace[i].faulty()) {
      Span span(tracer, "linker.calls");
      for (; i < trace.size() && !trace[i].faulty(); ++i) {
        const std::int64_t got = run_benign(*proc, env, trace[i]);
        if (next_expected >= expected.size() || got != expected[next_expected]) {
          ++stats.mismatched_results;
        }
        ++next_expected;
        ++stats.benign_calls;
      }
      continue;
    }
    const std::uint64_t before = recorder.detections();
    {
      Span span(tracer, "incident.detect");
      if (!run_fault(*proc, env, trace[i])) ++stats.crashed_faults;
    }
    if (recorder.detections() - before != 1) ++stats.uncaught_faults;
    ++stats.faults;
    ++i;
  }
  const Interval calls = calls_timer.stop(static_cast<double>(proc->calls_dispatched() - calls0));
  stats.calls += proc->calls_dispatched() - calls0;
  stats.repairs += recorder.repairs_applied();
  stats.detections += recorder.detections() - recorder.repairs_applied();
  return calls;
}

// Traced only: the run's benign calls on an unwrapped process and under
// each wrapper family alone, plus the whole stack, each in its own span.
void replay_families(const Setup& setup, std::size_t sample, Tracer& tracer,
                     std::uint64_t& replay_calls, std::uint64_t& bare_cycles) {
  Span root(tracer, "replay", sample);
  const Trace benign = benign_only(setup.traces[sample % kTraces]);
  const std::pair<const char*, unsigned> kRuns[] = {
      {"linker.call_bare", 0},          {"wrappers.profiling", kProfiling},
      {"wrappers.robustness", kRobustness}, {"wrappers.security", kSecurity},
      {"wrappers.repair", kRepair},     {"wrappers.stack", kHardened}};
  for (const auto& [name, families] : kRuns) {
    auto proc = setup.toolkit->spawn(demo_executable(), instantiate(setup, families));
    const Env env = app_start(*proc);
    const std::uint64_t cycles0 = proc->machine().rdtsc();
    {
      Span span(tracer, name);
      for (const Call& call : benign) (void)run_benign(*proc, env, call);
    }
    if (families == 0) {
      replay_calls += benign.size();
      bare_cycles += proc->machine().rdtsc() - cycles0;
    }
  }
}

bool repair_run(std::uint64_t seed, std::size_t sample) { return mix(seed, sample) % 4 == 0; }

}  // namespace

RunResult run_app_hardened(const Options& options, Tracer& tracer) {
  RunResult result;
  Setup setup;
  const double setup_s =
      median_setup_seconds(5, [&] { setup = make_setup(options.seed); });

  // A traced run follows each untraced app run with the same run traced, so
  // both see the same machine conditions.
  Tracer off(false);
  RunStats plain, traced;
  std::uint64_t replay_calls = 0, bare_cycles = 0;
  std::vector<Interval> call_phases;
  std::vector<double> run_s;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxSamples; ++i) {
    if (i >= kMinSamples && seconds_between(start, Clock::now()) >= options.seconds) break;
    const bool repair = repair_run(options.seed, i);
    const auto t0 = Clock::now();
    call_phases.push_back(app_run(setup, i, repair, off, plain));
    run_s.push_back(seconds_between(t0, Clock::now()));
    if (options.trace) {
      (void)app_run(setup, i, repair, tracer, traced);
      if (i % kReplayEvery == 0) replay_families(setup, i, tracer, replay_calls, bare_cycles);
    }
  }
  const std::size_t n = run_s.size();

  for (const RunStats* s : {&plain, &traced}) {
    result.attempted += s->calls;
    result.failed += s->mismatched_results + s->uncaught_faults + s->crashed_faults;
    if (s->mismatched_results) {
      result.fail(std::to_string(s->mismatched_results) +
                  " benign calls returned other than on an unwrapped process");
    }
    if (s->crashed_faults) {
      result.fail(std::to_string(s->crashed_faults) + " faulty calls were not contained");
    }
    if (s->uncaught_faults) {
      result.fail(std::to_string(s->uncaught_faults) +
                  " faulty calls did not yield exactly one detection or repair");
    }
  }
  if (plain.faults == 0) result.fail("no faulty call was exercised");

  result.info["samples"] = static_cast<double>(n);
  result.info["calls_per_run"] = static_cast<double>(plain.calls) / n;
  result.info["faults_per_run"] = static_cast<double>(plain.faults) / n;
  result.info["detections"] = static_cast<double>(plain.detections);
  result.info["repairs"] = static_cast<double>(plain.repairs);

  if (!options.trace) {
    std::vector<double> us;
    for (const double s : run_s) us.push_back(s * 1e6);
    const std::size_t chunks = chunk_count(us.size(), kPerChunk);
    result.set_end_to_end(setup_s, us, kTailQ, chunks,
                          chunk_rates("app_calls_per_s", 1, call_phases, chunks));
    return result;
  }

  const auto per_call_ns = [&](const char* name) {
    const auto it = tracer.totals().find(name);
    if (it == tracer.totals().end() || replay_calls == 0) return 0.0;
    return it->second.total_s / static_cast<double>(replay_calls) * 1e9;
  };
  const double bare_ns = per_call_ns("linker.call_bare");
  const auto& totals = tracer.totals();
  const double benign_call_s =
      totals.count("linker.calls") ? totals.at("linker.calls").total_s / traced.benign_calls : 0;
  double untraced_s = 0;
  for (const double s : run_s) untraced_s += s;
  result.set("linker.spawn_us", tracer.mean_s("linker.spawn") * 1e6, "us");
  result.set("linker.call_bare_ns", bare_ns, "ns");
  result.set("wrappers.profiling_ns", per_call_ns("wrappers.profiling") - bare_ns, "ns");
  result.set("wrappers.robustness_ns", per_call_ns("wrappers.robustness") - bare_ns, "ns");
  result.set("wrappers.security_ns", per_call_ns("wrappers.security") - bare_ns, "ns");
  result.set("wrappers.repair_ns", per_call_ns("wrappers.repair") - bare_ns, "ns");
  result.set("wrappers.stack_ns", per_call_ns("wrappers.stack") - bare_ns, "ns");
  result.set("incident.detect_us", (tracer.mean_s("incident.detect") - benign_call_s) * 1e6, "us");
  result.set("wrappers.detections", static_cast<double>(traced.detections) / n, "count");
  result.set("wrappers.repairs", static_cast<double>(traced.repairs) / n, "count");
  result.set("simlib.sim_cycles_per_call",
             replay_calls ? static_cast<double>(bare_cycles) / replay_calls : 0, "count");
  result.set("coverage", tracer.coverage("app-hardened"), "ratio");
  result.set("trace_overhead", tracer.sample_total_s("app-hardened") / untraced_s, "ratio");
  return result;
}

}  // namespace perfbench
