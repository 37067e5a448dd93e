#include "injector/injector.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace healers::injector {

using lattice::TestTypeId;
using linker::CallOutcome;

namespace {

// splitmix64 finalizer: full-avalanche mixing for probe-seed derivation.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// The per-coordinate seed: a pure function of the campaign seed and the
// probe coordinate. Every fabrication owns an independent Rng derived from
// this, so the values it produces cannot depend on which worker ran it, in
// what order, or how many probes ran before it — the root of the engine's
// determinism. A test type's whole case list is fabricated from the
// case_index=0 seed (cases are picked out of one enumeration), so an
// implied verdict can replay the identical values without a testbed.
[[nodiscard]] std::uint64_t probe_seed(std::uint64_t seed, std::uint64_t fn_hash, std::size_t arg,
                                       TestTypeId id, std::size_t case_index) noexcept {
  std::uint64_t h = mix64(seed ^ fn_hash);
  h = mix64(h ^ (static_cast<std::uint64_t>(arg) << 40) ^
            (static_cast<std::uint64_t>(id) << 20) ^ static_cast<std::uint64_t>(case_index));
  return h;
}

// Sentinel arg slot seeding the safe-value fabrication of a function's base
// snapshot — outside any real argument index.
inline constexpr std::size_t kSafeArgsSlot = 0xffff;

// Folds one probe outcome into a type verdict.
void fold_outcome(TypeVerdict& verdict, const CallOutcome& outcome) {
  ++verdict.probes;
  if (!outcome.robustness_failure()) return;
  ++verdict.failures;
  switch (outcome.kind) {
    case CallOutcome::Kind::kCrash:
    case CallOutcome::Kind::kHijack:
      ++verdict.crashes;
      break;
    case CallOutcome::Kind::kHang:
      ++verdict.hangs;
      break;
    case CallOutcome::Kind::kAbort:
      ++verdict.aborts;
      break;
    default:
      break;
  }
  if (verdict.first_failure.empty()) verdict.first_failure = outcome.detail;
}

}  // namespace

FaultInjector::FaultInjector(const linker::LibraryCatalog& catalog, InjectorConfig config)
    : catalog_(catalog),
      config_(config),
      profiles_(std::make_shared<lattice::ImplicationProfileStore>()) {}

FaultInjector::~FaultInjector() = default;

const std::string& FaultInjector::probe_stdin() {
  // Testbed environment: pending console input so stdin-consuming functions
  // (gets) do real work during probes.
  static const std::string kInput = "a line of console input for the probe\n";
  return kInput;
}

mem::MachineConfig FaultInjector::machine_config() const noexcept {
  mem::MachineConfig machine_config;
  machine_config.heap_size = config_.testbed_heap;
  machine_config.stack_size = config_.testbed_stack;
  machine_config.step_budget = config_.probe_step_budget;
  return machine_config;
}

void FaultInjector::set_testbed_state(
    std::shared_ptr<const linker::TestbedState> state) noexcept {
  if (state == nullptr) return;
  const mem::MachineConfig want = machine_config();
  const mem::MachineConfig& got = state->config();
  if (got.heap_size != want.heap_size || got.stack_size != want.stack_size ||
      got.step_budget != want.step_budget) {
    return;  // built for a different machine shape — forking it would skew results
  }
  state_ = std::move(state);
}

void FaultInjector::set_profile_store(
    std::shared_ptr<lattice::ImplicationProfileStore> store) noexcept {
  if (store != nullptr) profiles_ = std::move(store);
}

void FaultInjector::ensure_state() {
  if (!config_.snapshot_reset || state_ != nullptr) return;
  state_ = linker::TestbedState::build(catalog_, machine_config(), probe_stdin());
  const mem::CowStats& built = state_->build_stats();
  pages_sealed_.fetch_add(built.pages_sealed, std::memory_order_relaxed);
  pages_faulted_.fetch_add(built.pages_faulted, std::memory_order_relaxed);
  pages_privatized_.fetch_add(built.pages_privatized, std::memory_order_relaxed);
  pages_dropped_.fetch_add(built.pages_dropped, std::memory_order_relaxed);
}

std::unique_ptr<linker::Process> FaultInjector::make_bed() {
  testbeds_built_.fetch_add(1, std::memory_order_relaxed);
  if (config_.snapshot_reset) {
    // ensure_state() already ran (before the fan-out); fork an O(metadata)
    // shell from the shared pristine image.
    states_forked_.fetch_add(1, std::memory_order_relaxed);
    return state_->fork("probe-testbed");
  }
  auto bed = std::make_unique<linker::Process>("probe-testbed", machine_config());
  bed->state().stdin_content = probe_stdin();
  for (const std::string& soname : catalog_.sonames()) {
    bed->load_library(catalog_.find(soname));
  }
  return bed;
}

void FaultInjector::harvest(const linker::Process& bed) noexcept {
  const mem::CowStats stats = bed.machine().mem().cow_stats();
  pages_sealed_.fetch_add(stats.pages_sealed, std::memory_order_relaxed);
  pages_faulted_.fetch_add(stats.pages_faulted, std::memory_order_relaxed);
  pages_privatized_.fetch_add(stats.pages_privatized, std::memory_order_relaxed);
  pages_dropped_.fetch_add(stats.pages_dropped, std::memory_order_relaxed);
}

CampaignEngineStats FaultInjector::engine_stats() const noexcept {
  CampaignEngineStats stats;
  stats.states_forked = states_forked_.load(std::memory_order_relaxed);
  stats.testbeds_built = testbeds_built_.load(std::memory_order_relaxed);
  stats.pages_sealed = pages_sealed_.load(std::memory_order_relaxed);
  stats.pages_faulted = pages_faulted_.load(std::memory_order_relaxed);
  stats.pages_privatized = pages_privatized_.load(std::memory_order_relaxed);
  stats.pages_dropped = pages_dropped_.load(std::memory_order_relaxed);
  stats.probes_executed = probes_executed_.load(std::memory_order_relaxed);
  stats.probes_implied = probes_implied_.load(std::memory_order_relaxed);
  stats.verdicts_implied = verdicts_implied_.load(std::memory_order_relaxed);
  stats.memo_case_hits = memo_hits_.load(std::memory_order_relaxed);
  stats.args_probed = args_probed_.load(std::memory_order_relaxed);
  stats.args_warm_ordered = args_warm_.load(std::memory_order_relaxed);
  return stats;
}

void FaultInjector::fabricate_safe_args(WorkerBed& wb, const ProbeTask& task) {
  const parser::ManPage& page = *task.page;
  Rng rng(probe_seed(config_.seed, task.fn_hash, kSafeArgsSlot, TestTypeId::kNull, 0));
  lattice::ValueFactory factory(*wb.bed, rng);
  wb.safe_args.clear();
  wb.safe_args.reserve(page.proto.params.size());
  for (std::size_t j = 0; j < page.proto.params.size(); ++j) {
    wb.safe_args.push_back(factory.safe_value(page, static_cast<int>(j) + 1));
  }
}

void FaultInjector::bed_to_base(WorkerBed& wb, const simlib::SharedLibrary& lib,
                                const ProbeTask& task) {
  (void)lib;
  if (config_.snapshot_reset) {
    if (wb.bed != nullptr && wb.base_page == task.page) {
      // Hot path: rewind onto the per-function base — drops only the pages
      // the previous probe privatized; the safe values survive inside the
      // snapshot's sealed image.
      wb.bed->restore(wb.base);
      states_forked_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (wb.bed == nullptr) {
      wb.bed = make_bed();
    } else {
      state_->reset(*wb.bed);
      states_forked_.fetch_add(1, std::memory_order_relaxed);
    }
    fabricate_safe_args(wb, task);
    wb.base = wb.bed->snapshot();
    wb.base_page = task.page;
    return;
  }
  // Fresh mode: rebuild the whole process and re-fabricate every safe value
  // per probe — the deep oracle the snapshot path is compared against.
  if (wb.bed != nullptr) harvest(*wb.bed);
  wb.bed = make_bed();
  fabricate_safe_args(wb, task);
  wb.base_page = task.page;
}

FaultInjector::TypeOutput FaultInjector::run_type(
    WorkerBed& wb, const simlib::SharedLibrary& lib, const ProbeTask& task, TestTypeId id,
    std::map<std::int64_t, CallOutcome>* int_memo) {
  TypeOutput out;
  out.verdict.id = id;
  const parser::ManPage& page = *task.page;
  const bool integral = task.cls == parser::TypeClass::kIntegral;
  const std::size_t expected = lattice::case_count(id, config_.variants);

  if (lattice::is_scalar_type(id)) {
    // Scalar cases are pure data — enumerate without a testbed, and let the
    // value memo answer integral cases whose exact value was already called
    // for this argument (the bed state at call time is the base snapshot for
    // every scalar probe, so the outcome is a function of the value alone).
    Rng rng(probe_seed(config_.seed, task.fn_hash, task.arg_index, id, 0));
    const std::vector<lattice::TestCase> cases =
        lattice::scalar_cases(id, config_.variants, rng);
    if (cases.size() != expected) {
      throw std::logic_error("run_type: case_count(" + lattice::to_string(id) +
                             ") disagrees with enumeration");
    }
    for (const lattice::TestCase& test_case : cases) {
      const std::int64_t injected = test_case.value.as_int();
      if (integral) out.int_values.push_back(injected);
      if (integral && int_memo != nullptr) {
        const auto hit = int_memo->find(injected);
        if (hit != int_memo->end()) {
          memo_hits_.fetch_add(1, std::memory_order_relaxed);
          probes_implied_.fetch_add(1, std::memory_order_relaxed);
          fold_outcome(out.verdict, hit->second);
          continue;
        }
      }
      bed_to_base(wb, lib, task);
      std::vector<simlib::SimValue> args = wb.safe_args;
      args[task.arg_index] = test_case.value;
      probes_executed_.fetch_add(1, std::memory_order_relaxed);
      const CallOutcome outcome = wb.bed->supervised_call(page.proto.name, std::move(args));
      if (integral && int_memo != nullptr) int_memo->emplace(injected, outcome);
      fold_outcome(out.verdict, outcome);
    }
    return out;
  }

  // Pointer cases fabricate testbed state, so every probe re-enumerates the
  // type's whole case list on a freshly based bed (identical each time —
  // the Rng is seeded at case_index 0) and injects case `i`. Bed state at
  // call time therefore includes every case's fabrication, uniformly.
  for (std::size_t case_index = 0;; ++case_index) {
    bed_to_base(wb, lib, task);
    Rng rng(probe_seed(config_.seed, task.fn_hash, task.arg_index, id, 0));
    lattice::ValueFactory factory(*wb.bed, rng);
    const std::vector<lattice::TestCase> cases = factory.cases_of(id, config_.variants);
    if (case_index == 0 && cases.size() != expected) {
      throw std::logic_error("run_type: case_count(" + lattice::to_string(id) +
                             ") disagrees with fabrication");
    }
    if (case_index >= cases.size()) break;
    std::vector<simlib::SimValue> args = wb.safe_args;
    args[task.arg_index] = cases[case_index].value;
    probes_executed_.fetch_add(1, std::memory_order_relaxed);
    fold_outcome(out.verdict, wb.bed->supervised_call(page.proto.name, std::move(args)));
  }
  return out;
}

FaultInjector::TypeOutput FaultInjector::synthesize_pass(const ProbeTask& task, TestTypeId id,
                                                         TestTypeId from) {
  TypeOutput out;
  out.verdict.id = id;
  out.verdict.implied = true;
  out.verdict.implied_from = from;
  if (lattice::is_scalar_type(id)) {
    // Replay the exact enumeration execution would have used — including
    // kHugeSize's rng draws — so int_values feed range derivation
    // identically.
    Rng rng(probe_seed(config_.seed, task.fn_hash, task.arg_index, id, 0));
    const std::vector<lattice::TestCase> cases =
        lattice::scalar_cases(id, config_.variants, rng);
    out.verdict.probes = static_cast<int>(cases.size());
    if (task.cls == parser::TypeClass::kIntegral) {
      for (const lattice::TestCase& test_case : cases) {
        out.int_values.push_back(test_case.value.as_int());
      }
    }
  } else {
    out.verdict.probes = static_cast<int>(lattice::case_count(id, config_.variants));
  }
  return out;
}

FaultInjector::TaskOutput FaultInjector::run_task(WorkerBed& wb, const simlib::SharedLibrary& lib,
                                                  const ProbeTask& task,
                                                  const lattice::SignatureProfile* profile) {
  const parser::ManPage& page = *task.page;
  const std::vector<TestTypeId>& types = lattice::test_types_for(task.cls);
  TaskOutput out;
  out.typed.resize(types.size());
  for (std::size_t k = 0; k < types.size(); ++k) out.typed[k].verdict.id = types[k];
  if (types.empty()) return out;
  if (!lib.defines(page.proto.name)) {
    // Caller verified; belt and braces. Zero-probe verdicts, never learned.
    return out;
  }
  args_probed_.fetch_add(1, std::memory_order_relaxed);

  if (!config_.prune) {
    // Unpruned reference walk: canonical order, every case executed.
    for (std::size_t k = 0; k < types.size(); ++k) {
      out.typed[k] = run_type(wb, lib, task, types[k], nullptr);
    }
    return out;
  }

  if (profile != nullptr) args_warm_.fetch_add(1, std::memory_order_relaxed);
  const lattice::ImplicationIndex& index = lattice::ImplicationIndex::instance();
  std::map<std::int64_t, CallOutcome> memo;
  std::map<std::int64_t, CallOutcome>* int_memo =
      task.cls == parser::TypeClass::kIntegral ? &memo : nullptr;

  std::vector<bool> resolved(types.size(), false);
  // Dominated types still unresolved — how much a pass of `id` would prune.
  const auto unresolved_reach = [&](TestTypeId id) {
    std::size_t n = 0;
    for (const TestTypeId safe : index.implied_pass(id)) {
      if (!resolved[index.canonical_rank(safe)]) ++n;
    }
    return n;
  };
  // Walk: warm profiles probe predicted-pass frontier types first (widest
  // unresolved reach); cold walks probe the endpoints first — the most
  // hostile (maximum total reach), then the safest survivor — then the
  // widest unresolved gap. Ties break toward canonical order.
  for (std::size_t step = 0;; ++step) {
    std::size_t pick = types.size();
    std::size_t best = 0;
    if (profile != nullptr) {
      // Predicted-pass frontier: widest unresolved reach first, so the
      // synthesized closure lands as early as possible.
      for (std::size_t k = 0; k < types.size(); ++k) {
        if (resolved[k] || !profile->predicts_pass(types[k])) continue;
        const std::size_t score = unresolved_reach(types[k]);
        if (pick == types.size() || score > best) {
          pick = k;
          best = score;
        }
      }
    }
    if (pick == types.size()) {
      // Cold (or frontier exhausted): endpoints first, then widest gap.
      for (std::size_t k = 0; k < types.size(); ++k) {
        if (resolved[k]) continue;
        std::size_t score = 0;
        if (step == 0) {
          score = index.reach(types[k]);  // most hostile endpoint
        } else if (step == 1) {
          score = index.hostility_rank(types[k]);  // safest survivor
        } else {
          score = unresolved_reach(types[k]);
        }
        if (pick == types.size() || score > best) {
          pick = k;
          best = score;
        }
      }
    }
    if (pick == types.size()) break;  // everything resolved

    const TestTypeId id = types[pick];
    out.typed[pick] = run_type(wb, lib, task, id, int_memo);
    resolved[pick] = true;
    if (out.typed[pick].verdict.probes > 0 && out.typed[pick].verdict.failures == 0) {
      // pass(hostile) ⇒ pass(safe): synthesize the closure.
      for (const TestTypeId safe : index.implied_pass(id)) {
        const std::size_t k = index.canonical_rank(safe);
        if (resolved[k]) continue;
        out.typed[k] = synthesize_pass(task, safe, id);
        resolved[k] = true;
        verdicts_implied_.fetch_add(1, std::memory_order_relaxed);
        probes_implied_.fetch_add(static_cast<std::uint64_t>(out.typed[k].verdict.probes),
                                  std::memory_order_relaxed);
      }
    }
  }
  return out;
}

void FaultInjector::learn_task(const ProbeTask& task, const TaskOutput& out) {
  if (!config_.prune) return;
  for (const TypeOutput& typed : out.typed) {
    if (typed.verdict.probes == 0) continue;
    profiles_->learn(task.signature, typed.verdict.id, typed.verdict.failures == 0);
  }
}

std::vector<FaultInjector::TaskOutput> FaultInjector::execute(const simlib::SharedLibrary& lib,
                                                              const std::vector<ProbeTask>& tasks) {
  const unsigned jobs = config_.jobs <= 0 ? support::ThreadPool::hardware_workers()
                                          : static_cast<unsigned>(config_.jobs);
  // Build (or adopt) the shared pristine state before the fan-out: state_ is
  // written once here, then only read (and forked — atomic refcounts) by the
  // workers.
  ensure_state();
  std::vector<TaskOutput> outputs(tasks.size());
  if (jobs <= 1) {
    // Sequential: one testbed, no pool, no locking — and live learning: an
    // argument's walk is warmed by everything probed before it, including
    // earlier arguments of this very campaign.
    WorkerBed wb;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const lattice::SignatureProfile* profile = nullptr;
      std::optional<lattice::SignatureProfile> snap;
      if (config_.prune) {
        snap = profiles_->lookup(tasks[i].signature);
        if (snap.has_value()) profile = &*snap;
      }
      outputs[i] = run_task(wb, lib, tasks[i], profile);
      learn_task(tasks[i], outputs[i]);
    }
    if (wb.bed != nullptr) harvest(*wb.bed);
    return outputs;
  }
  if (pool_ == nullptr || pool_->workers() != jobs) {
    pool_ = std::make_unique<support::ThreadPool>(jobs);
  }
  // Parallel walks read a profile snapshot frozen before the fan-out, so the
  // executed/implied split cannot depend on scheduling; what the walks
  // learned merges in canonical task order after the join.
  std::map<std::string, lattice::SignatureProfile> frozen;
  if (config_.prune) {
    for (const ProbeTask& task : tasks) {
      if (frozen.count(task.signature) != 0) continue;
      const auto snap = profiles_->lookup(task.signature);
      if (snap.has_value()) frozen.emplace(task.signature, *snap);
    }
  }
  std::vector<WorkerBed> beds(jobs);  // lazily built, one per worker
  std::vector<support::ThreadPool::Task> pool_tasks;
  pool_tasks.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    pool_tasks.push_back([this, &lib, &tasks, &outputs, &beds, &frozen, i](unsigned worker) {
      const lattice::SignatureProfile* profile = nullptr;
      const auto it = frozen.find(tasks[i].signature);
      if (it != frozen.end()) profile = &it->second;
      outputs[i] = run_task(beds[worker], lib, tasks[i], profile);
    });
  }
  pool_->run(std::move(pool_tasks));
  for (const WorkerBed& wb : beds) {
    if (wb.bed != nullptr) harvest(*wb.bed);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) learn_task(tasks[i], outputs[i]);
  return outputs;
}

std::vector<RobustSpec> FaultInjector::build_specs(
    const simlib::SharedLibrary& lib,
    const std::vector<std::pair<const simlib::Symbol*, const parser::ManPage*>>& functions) {
  // Phase 1: enumerate every probe coordinate up front, in canonical order.
  // The fan-out unit is one argument; its test types are walked inside the
  // task so lattice implications resolve without cross-task traffic.
  std::vector<RobustSpec> specs;
  specs.reserve(functions.size());
  std::vector<ProbeTask> tasks;
  for (std::size_t s = 0; s < functions.size(); ++s) {
    const auto& [symbol, page] = functions[s];
    RobustSpec spec;
    spec.function = page->proto.name;
    spec.library = lib.soname();
    spec.declaration = symbol->declaration;
    spec.skipped_noreturn = page->noreturn;
    specs.push_back(std::move(spec));
    if (page->noreturn) continue;
    const std::uint64_t fn_hash = fnv1a(page->proto.name);
    for (std::size_t i = 0; i < page->proto.params.size(); ++i) {
      const parser::TypeClass cls = page->proto.params[i].type.classify();
      tasks.push_back(ProbeTask{
          page, fn_hash, s, i, cls,
          lattice::ImplicationProfileStore::signature(cls,
                                                      page->arg(static_cast<int>(i) + 1))});
    }
  }

  // Phase 2: fan out.
  const std::vector<TaskOutput> outputs = execute(lib, tasks);

  // Phase 3: reduce in exactly the enumeration order — neither which worker
  // ran a walk nor the order the walk probed types in can influence where a
  // verdict lands or how counters fold.
  std::size_t t = 0;
  for (std::size_t s = 0; s < functions.size(); ++s) {
    const parser::ManPage* page = functions[s].second;
    RobustSpec& spec = specs[s];
    if (page->noreturn) continue;
    for (std::size_t i = 0; i < page->proto.params.size(); ++i) {
      ArgSpec arg;
      arg.index = static_cast<int>(i) + 1;
      arg.ctype = page->proto.params[i].type.to_string();
      arg.cls = page->proto.params[i].type.classify();
      const TaskOutput& out = outputs[t++];
      for (const TypeOutput& typed : out.typed) {
        spec.total_probes += typed.verdict.probes;
        spec.total_failures += typed.verdict.failures;
        spec.crashes += typed.verdict.crashes;
        spec.hangs += typed.verdict.hangs;
        spec.aborts += typed.verdict.aborts;
        // The integral probe values that passed: the weakest safe range is
        // derived from them when the annotation gives no domain. Implied
        // verdicts replay the identical values execution would have injected.
        if (arg.cls == parser::TypeClass::kIntegral && typed.verdict.failures == 0) {
          arg.passing_int_values.insert(arg.passing_int_values.end(), typed.int_values.begin(),
                                        typed.int_values.end());
        }
        arg.verdicts.push_back(typed.verdict);
      }
      arg.checks = derive_checks(arg, page->arg(arg.index));
      spec.args.push_back(std::move(arg));
    }
  }
  return specs;
}

DerivedChecks derive_checks(const ArgSpec& arg, const parser::ArgAnnotation* note) {
  DerivedChecks checks;
  const auto failed = [&arg](TestTypeId id) {
    const TypeVerdict* v = arg.verdict(id);
    return v != nullptr && v->failed();
  };

  if (arg.cls == parser::TypeClass::kPointer) {
    checks.require_nonnull = failed(TestTypeId::kNull);
    checks.require_mapped = failed(TestTypeId::kIntAsPtr) || failed(TestTypeId::kWildPtr) ||
                            failed(TestTypeId::kFreedPtr);
    checks.require_writable = failed(TestTypeId::kReadOnlyCString);
    checks.require_terminated = failed(TestTypeId::kUntermBuf);
    checks.require_size_check = failed(TestTypeId::kTinyWritable);
    // Buffer semantics imply a mapped pointer even when the hostile probes
    // happened not to fault (e.g. variants landed on mapped garbage).
    if (checks.require_writable || checks.require_terminated || checks.require_size_check) {
      checks.require_mapped = true;
    }
    // Opaque-handle roles cannot be told apart by buffer probes (everything
    // non-handle fails); the annotation names the role, the near-universal
    // failure profile corroborates it.
    if (note != nullptr && note->is_file) {
      checks.require_file = true;
      checks.require_nonnull = true;
      checks.require_mapped = true;
    }
    if (note != nullptr && note->is_heapptr) {
      checks.require_heap_pointer = true;
    }
    if (note != nullptr && note->is_funcptr) {
      checks.require_callback = true;
      checks.require_nonnull = true;
    }
    return checks;
  }

  if (arg.cls == parser::TypeClass::kIntegral) {
    bool any_failure = false;
    for (const TypeVerdict& v : arg.verdicts) any_failure = any_failure || v.failed();
    if (any_failure) {
      if (note != nullptr && note->range.has_value()) {
        checks.range = note->range;
      } else if (!arg.passing_int_values.empty()) {
        const auto [lo, hi] =
            std::minmax_element(arg.passing_int_values.begin(), arg.passing_int_values.end());
        checks.range = {*lo, *hi};
      } else {
        checks.range = {0, 0};  // nothing passed: only a degenerate domain is known safe
      }
    }
    return checks;
  }

  return checks;  // floating/void: no derivable preconditions
}

Result<RobustSpec> FaultInjector::probe_function(const simlib::SharedLibrary& lib,
                                                 const std::string& name) {
  const simlib::Symbol* symbol = lib.find(name);
  if (symbol == nullptr) {
    return Error("probe_function: " + lib.soname() + " does not define " + name);
  }
  const Result<parser::ManPage>& page = lib.page(name);
  if (!page.ok()) {
    return Error("probe_function: man page of " + name + ": " + page.error().message);
  }
  std::vector<RobustSpec> specs = build_specs(lib, {{symbol, &page.value()}});
  return std::move(specs.front());
}

Result<CampaignResult> FaultInjector::run_campaign(
    const simlib::SharedLibrary& lib, const std::function<void(const std::string&)>& progress) {
  CampaignResult result;
  result.library = lib.soname();
  result.seed = config_.seed;
  // Prescan: look up every man page before fanning out, so parse failures
  // surface deterministically in name order.
  std::vector<std::pair<const simlib::Symbol*, const parser::ManPage*>> functions;
  for (const std::string& name : lib.names()) {
    if (!config_.only_functions.empty() &&
        std::find(config_.only_functions.begin(), config_.only_functions.end(), name) ==
            config_.only_functions.end()) {
      continue;  // outside the surface scope: the executable can never call it
    }
    if (progress) progress(name);
    const simlib::Symbol* symbol = lib.find(name);
    if (symbol == nullptr) {
      return Error("probe_function: " + lib.soname() + " does not define " + name);
    }
    const Result<parser::ManPage>& page = lib.page(name);
    if (!page.ok()) {
      return Error("probe_function: man page of " + name + ": " + page.error().message);
    }
    functions.emplace_back(symbol, &page.value());
  }
  const CampaignEngineStats before = engine_stats();
  result.specs = build_specs(lib, functions);
  const CampaignEngineStats after = engine_stats();
  result.engine.states_forked = after.states_forked - before.states_forked;
  result.engine.testbeds_built = after.testbeds_built - before.testbeds_built;
  result.engine.pages_sealed = after.pages_sealed - before.pages_sealed;
  result.engine.pages_faulted = after.pages_faulted - before.pages_faulted;
  result.engine.pages_privatized = after.pages_privatized - before.pages_privatized;
  result.engine.pages_dropped = after.pages_dropped - before.pages_dropped;
  result.engine.probes_executed = after.probes_executed - before.probes_executed;
  result.engine.probes_implied = after.probes_implied - before.probes_implied;
  result.engine.verdicts_implied = after.verdicts_implied - before.verdicts_implied;
  result.engine.memo_case_hits = after.memo_case_hits - before.memo_case_hits;
  result.engine.args_probed = after.args_probed - before.args_probed;
  result.engine.args_warm_ordered = after.args_warm_ordered - before.args_warm_ordered;
  return result;
}

}  // namespace healers::injector
