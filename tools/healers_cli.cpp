// The `healers` command-line driver — the scriptable face of the toolkit
// (the paper drove the same operations through a web UI, Figs 4/5).
//
// `healers help` (print_usage below) lists every command and flag, and
// docs/cli.md documents them.
//
// derive→(ship XML)→gen-source is the paper's offline pipeline: campaigns
// run where the library lives; wrapper generation can happen anywhere the
// spec file reaches. fleet simulate→ingest/report is the §2.3 collection
// story at fleet scale: hosts emit profile documents (XML or the compact
// binary wire format), the sharded collector aggregates them. serve is the
// derivation service: a simulated client fleet asks one DeriveServer for
// robust APIs and wrapper bundles; single-flight dedup plus the persistent
// spec cache (--cache-file, shared with derive) keep repeat answers at zero
// probes.
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "debloat/reachability.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/simulator.hpp"
#include "fleet/wire.hpp"
#include "incident/recorder.hpp"
#include "server/derive_server.hpp"
#include "server/spec_cache.hpp"
#include "sim/fleet_sim.hpp"
#include "simlib/library.hpp"
#include "wrappers/wrappers.hpp"

using namespace healers;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: healers <command> [args]\n"
               "  help\n"
               "  list-libs\n"
               "  list-functions <soname>\n"
               "  decls <soname> [-o file]\n"
               "  derive <soname> [--seed N] [--variants N] [--jobs N]\n"
               "         [--reset fork|fresh] [--no-prune] [--stats] [--repair]\n"
               "         [--cache-file file] [-o file]\n"
               "         [--debloat]\n"
               "         (--jobs N probes on N worker threads, 0 = all cores;\n"
               "          --reset fork resets probes by COW fork from a shared pristine\n"
               "          state, fresh rebuilds a process per probe; --no-prune disables\n"
               "          subsumption pruning and executes every probe; results are\n"
               "          identical for every --jobs, --reset and --no-prune value;\n"
               "          --stats appends engine fork/privatize and implication-cache\n"
               "          counters as an <engine> XML node;\n"
               "          --cache-file loads/saves the persistent spec cache so repeat\n"
               "          runs execute 0 probes and warm campaigns reuse learned\n"
               "          implication profiles;\n"
               "          --repair additionally derives the repair policy from the\n"
               "          campaign's crash boundaries and appends it as a\n"
               "          <repair-policy> XML node — the campaign document itself is\n"
               "          byte-identical with or without it;\n"
               "          --debloat scopes the campaign to the symbols reachable from\n"
               "          an installed surface scope — HSSP1 cache entries, or the demo\n"
               "          executables' closures when none are installed)\n"
               "  report <campaign.xml>\n"
               "  gen-source <soname> --type profiling|robustness|security|testing|repair\n"
               "             [--campaign file] [-o file]\n"
               "  inspect demo-heap|demo-stack|demo-drift [--validate] [--format text|xml]\n"
               "          [-o file]\n"
               "          (--validate runs the entry point under a tracing interposition\n"
               "           and records stale imports — symbols the binary calls that its\n"
               "           declared import list is missing — in the Fig 4 link map)\n"
               "  debloat demo-heap|demo-stack|demo-drift [--format text|xml|binary]\n"
               "          [--cache-file file] [-o file]\n"
               "          (static reachability closure + a demand-loading run: symbols\n"
               "           start unmapped, the first call faults each one in, and calls\n"
               "           outside the closure trap as surface violations; --cache-file\n"
               "           persists the closure as HSSP1 surface-scope entries that\n"
               "           derive/serve --debloat campaigns are scoped to)\n"
               "  demo attacks\n"
               "  dossier demo-heap|demo-stack|demo-drift [--format text|xml|binary]\n"
               "          [--repair] [-o file]\n"
               "          (--repair preloads the repair wrapper instead of the security\n"
               "           wrapper: the attack is truncated/substituted away, the victim\n"
               "           survives, and the dossier records the applied RepairEvents;\n"
               "           demo-drift runs under demand loading and captures the\n"
               "           surface-violation dossier its stale rand() import raises)\n"
               "  simulate [--hosts N] [--virtual-seconds N] [--seed N] [--jobs N]\n"
               "           [--traffic steady|diurnal|burst|straggler|crashloop|mixed]\n"
               "           [--shards N] [--capacity N] [--stats] [--debloat] [-o file]\n"
               "           (virtual-time discrete-event fleet: N simulated hosts drive\n"
               "            the real collector and DeriveServer; the summary is\n"
               "            byte-identical for a given --seed at any --jobs/--shards;\n"
               "            --stats appends the collector and derive-service summaries;\n"
               "            --debloat puts hosts under demand loading — they emit\n"
               "            surface-profile documents the collector aggregates)\n"
               "  fleet simulate [--hosts N] [--docs N] [--seed N] [--jobs N]\n"
               "                 [--encoding xml|binary|mixed] [-o file]\n"
               "  fleet ingest <file> [--shards N] [--jobs N] [--capacity N]\n"
               "  fleet report <file> [--shards N] [--jobs N]\n"
               "  serve [--clients N] [--requests N] [--jobs N] [--shards N]\n"
               "        [--capacity N] [--cache-file file] [--encoding xml|binary]\n"
               "        [--seed N] [--repair] [--stats] [--debloat] [-o file]\n"
               "        (--repair adds repair-wrapper bundles to the simulated client\n"
               "         rotation; derived policies persist as HSRP1 spec-cache\n"
               "         entries. --stats additionally reports the repair-policy\n"
               "         census on stderr: policies derived, rules per action.\n"
               "         --debloat scopes campaigns to the installed surface scopes)\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "healers: %s\n", message.c_str());
  return 1;
}

// Writes to the -o target, or stdout when none was given.
int emit(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  out << text;
  out.close();  // flushes: a full device fails here, not at the <<
  if (!out) return fail("cannot write " + out_path);
  std::printf("wrote %zu bytes to %s\n", text.size(), out_path.c_str());
  return 0;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Options {
  std::vector<std::string> positional;
  std::string out_path;
  std::string type;
  std::string campaign_path;
  std::uint64_t seed = 2003;
  unsigned variants = 1;
  unsigned jobs = 1;
  unsigned hosts = 8;
  unsigned docs = 8;
  unsigned shards = 4;
  std::optional<unsigned> capacity;  // unset: 4096 for fleet and serve, the sim's own
  unsigned clients = 4;
  unsigned requests = 8;
  std::uint64_t virtual_seconds = 60;
  std::string traffic = "mixed";
  std::string encoding = "mixed";
  std::string format = "text";
  std::string cache_file;
  std::string reset = "fork";
  bool no_prune = false;
  bool stats = false;
  bool repair = false;
  bool validate = false;
  bool debloat = false;
};

// The flags, by what follows them: a string, a number, or nothing.
const std::map<std::string, std::string Options::*> kStringFlags = {
    {"-o", &Options::out_path},              {"--type", &Options::type},
    {"--campaign", &Options::campaign_path}, {"--traffic", &Options::traffic},
    {"--cache-file", &Options::cache_file},  {"--encoding", &Options::encoding},
    {"--format", &Options::format},          {"--reset", &Options::reset}};
using NumberField = std::variant<std::uint64_t Options::*, unsigned Options::*,
                                 std::optional<unsigned> Options::*>;
const std::map<std::string, NumberField> kNumberFlags = {
    {"--seed", &Options::seed},         {"--virtual-seconds", &Options::virtual_seconds},
    {"--variants", &Options::variants}, {"--jobs", &Options::jobs},
    {"--hosts", &Options::hosts},       {"--docs", &Options::docs},
    {"--shards", &Options::shards},     {"--capacity", &Options::capacity},
    {"--clients", &Options::clients},   {"--requests", &Options::requests}};
const std::map<std::string, bool Options::*> kSwitches = {
    {"--no-prune", &Options::no_prune}, {"--stats", &Options::stats},
    {"--repair", &Options::repair},     {"--validate", &Options::validate},
    {"--debloat", &Options::debloat}};

// `healers help --defaults`, left out of the usage text: each flag and the
// default parse_options starts it from, read from the tables above ("-"
// when the command picks it). tools/check_docs.sh checks docs/cli.md
// against this listing.
template <class T>
std::string default_text(const T& value) {
  return std::to_string(value);
}
std::string default_text(const std::optional<unsigned>& value) {
  return value ? std::to_string(*value) : "-";
}

void print_defaults() {
  const Options defaults;
  std::map<std::string, std::string> listing;
  for (const auto& [flag, field] : kStringFlags) {
    const std::string& value = defaults.*field;
    listing[flag] = value.empty() ? "-" : value;
  }
  for (const auto& [flag, field] : kNumberFlags) {
    listing[flag] = std::visit([&](auto member) { return default_text(defaults.*member); }, field);
  }
  for (const auto& [flag, field] : kSwitches) listing[flag] = defaults.*field ? "on" : "off";
  for (const auto& [flag, value] : listing) std::printf("%s %s\n", flag.c_str(), value.c_str());
}

// Parses a flag's whole value as a number in T's range. Counts (unsigned)
// stop at INT_MAX: the engine knobs they feed are ints.
template <class T>
Status parse_number(const std::string& flag, const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  if (error != std::errc() || stop != end ||
      (std::is_same_v<T, unsigned> && out > static_cast<T>(INT_MAX))) {
    return Error(flag + " expects a number, got '" + text + "'");
  }
  return Status::success();
}

template <class T>
Status parse_number(const std::string& flag, const std::string& text, std::optional<T>& out) {
  return parse_number(flag, text, out.emplace());
}

Result<Options> parse_options(int argc, char** argv) {
  Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto string_flag = kStringFlags.find(arg);
    const auto number_flag = kNumberFlags.find(arg);
    if (const auto flag = kSwitches.find(arg); flag != kSwitches.end()) {
      options.*flag->second = true;
    } else if (string_flag == kStringFlags.end() && number_flag == kNumberFlags.end()) {
      if (!arg.empty() && arg[0] == '-') return Error("unknown option " + arg);
      options.positional.push_back(arg);
    } else if (i + 1 >= argc) {
      return Error("missing value for " + arg);
    } else if (string_flag != kStringFlags.end()) {
      options.*string_flag->second = argv[++i];
      if (arg == "--reset" && options.reset != "fork" && options.reset != "fresh") {
        return Error("--reset must be fork or fresh");
      }
    } else if (Status status = std::visit(
                   [&](auto field) { return parse_number(arg, argv[++i], options.*field); },
                   number_flag->second);
               !status.ok()) {
      return status.error();
    }
  }
  return options;
}

Result<injector::CampaignResult> load_campaign(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto doc = xml::parse(text.value());
  if (!doc.ok()) return Error(path + ": " + doc.error().message);
  return injector::CampaignResult::from_xml(doc.value());
}

int cmd_list_libs(const core::Toolkit& toolkit) {
  for (const std::string& soname : toolkit.list_libraries()) {
    const auto functions = toolkit.list_functions(soname);
    std::printf("%-16s %zu functions\n", soname.c_str(), functions.value().size());
  }
  return 0;
}

int cmd_list_functions(const core::Toolkit& toolkit, const Options& options) {
  const auto functions = toolkit.list_functions(options.positional[0]);
  if (!functions.ok()) return fail(functions.error().message);
  for (const std::string& name : functions.value()) std::printf("%s\n", name.c_str());
  return 0;
}

int cmd_decls(const core::Toolkit& toolkit, const Options& options) {
  const auto doc = toolkit.declaration_xml(options.positional[0]);
  if (!doc.ok()) return fail(doc.error().message);
  return emit(xml::serialize(doc.value()), options.out_path);
}

// Imports the persistent spec cache named by --cache-file when the file
// exists; no flag or a missing file is a cold start, not an error (the save
// after the run creates it).
int load_spec_cache(const core::Toolkit& toolkit, const std::string& path) {
  if (path.empty()) return 0;
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return 0;
  std::size_t skipped_unknown = 0;
  auto imported = server::load_cache_file(toolkit, path, &skipped_unknown);
  if (!imported.ok()) return fail(imported.error().message);
  std::fprintf(stderr, "spec cache: imported %zu campaign(s) from %s\n", imported.value(),
               path.c_str());
  if (skipped_unknown > 0) {
    std::fprintf(stderr, "spec cache: skipped %zu entry(ies) with unknown magic\n",
                 skipped_unknown);
  }
  return 0;
}

// Saves the spec cache to --cache-file, when one was given, and reports its
// campaigns — or, after a debloat run, the surface scopes it installed.
int save_spec_cache(const core::Toolkit& toolkit, const std::string& path,
                    std::optional<std::size_t> scopes = std::nullopt) {
  if (path.empty()) return 0;
  const auto saved = server::save_cache_file(toolkit, path);
  if (!saved.ok()) return fail(saved.error().message);
  std::fprintf(stderr, "spec cache: saved %zu %s to %s\n",
               scopes ? *scopes : toolkit.export_campaigns().size(),
               scopes ? "surface scope(s)" : "campaign(s)", path.c_str());
  return 0;
}

// The named demo executables (`healers inspect`, `healers debloat`).
Result<linker::Executable> demo_executable(const std::string& name) {
  if (name == "demo-heap") return attacks::heap_victim_executable();
  if (name == "demo-stack") return attacks::stack_victim_executable();
  if (name == "demo-drift") return attacks::drift_victim_executable();
  return Error("unknown executable: " + name + " (try demo-heap, demo-stack or demo-drift)");
}

// Partitions one executable's static closure per needed library and installs
// the pieces as surface scopes. Returns the number of scopes installed.
std::size_t install_scopes_from(const core::Toolkit& toolkit, const linker::Executable& exe,
                                const debloat::ReachabilityReport& report) {
  std::size_t installed = 0;
  for (const std::string& soname : exe.needed) {
    const simlib::SharedLibrary* lib = toolkit.library(soname);
    if (lib == nullptr) continue;
    core::SurfaceScope scope;
    scope.executable = exe.name;
    scope.soname = soname;
    for (const std::string& symbol : report.reachable) {
      if (lib->defines(symbol)) scope.symbols.push_back(symbol);
    }
    if (scope.symbols.empty()) continue;
    if (toolkit.install_surface_scope(std::move(scope))) ++installed;
  }
  return installed;
}

// Installs the scopes of every demo executable — what --debloat falls back
// to when no cache file supplied installed scopes for the library.
std::size_t install_demo_scopes(const core::Toolkit& toolkit) {
  std::size_t installed = 0;
  for (const char* name : {"demo-heap", "demo-stack", "demo-drift"}) {
    const linker::Executable exe = demo_executable(name).value();
    installed += install_scopes_from(toolkit, exe, debloat::compute_reachability(exe, toolkit.catalog()));
  }
  return installed;
}

// Repair rules tallied by action: the census derive --repair and serve
// --stats print on stderr.
struct RuleCensus {
  std::size_t rules = 0, truncate = 0, substitute = 0, safe_return = 0;

  void add(const gen::RepairPolicy& policy) {
    for (const gen::FunctionRepairPolicy& fn : policy.functions) {
      for (const gen::RepairRule& rule : fn.rules) {
        ++rules;
        switch (rule.action) {
          case simlib::RepairAction::kTruncateWrite: ++truncate; break;
          case simlib::RepairAction::kSubstituteBounded:
          case simlib::RepairAction::kSynthesizeInput: ++substitute; break;
          case simlib::RepairAction::kSafeReturn: ++safe_return; break;
        }
      }
    }
  }
};

int cmd_derive(const core::Toolkit& toolkit, const Options& options) {
  if (const int rc = load_spec_cache(toolkit, options.cache_file); rc != 0) return rc;
  injector::InjectorConfig config;
  config.seed = options.seed;
  config.variants = options.variants;
  config.jobs = options.jobs;
  config.snapshot_reset = options.reset == "fork";
  config.prune = !options.no_prune;
  if (options.debloat) {
    // Scope the campaign to the symbols some executable's static closure can
    // reach. Scopes come from the cache file (HSSP1 entries) when present;
    // otherwise the demo executables' closures stand in.
    config.only_functions = toolkit.surface_scope_for(options.positional[0]);
    if (config.only_functions.empty()) {
      install_demo_scopes(toolkit);
      config.only_functions = toolkit.surface_scope_for(options.positional[0]);
    }
    if (config.only_functions.empty()) {
      return fail("no surface scope covers " + options.positional[0] +
                  " (run `healers debloat <exe> --cache-file ...` first)");
    }
    std::fprintf(stderr, "debloat: campaign scoped to %zu reachable function(s)\n",
                 config.only_functions.size());
  }
  const auto campaign = toolkit.derive_robust_api(options.positional[0], config);
  if (!campaign.ok()) return fail(campaign.error().message);
  std::fprintf(stderr, "%llu probes, %llu failures in %zu functions; executed %llu probes this run\n",
               static_cast<unsigned long long>(campaign.value().total_probes()),
               static_cast<unsigned long long>(campaign.value().total_failures()),
               campaign.value().functions_with_failures(),
               static_cast<unsigned long long>(toolkit.probes_executed()));
  if (const int rc = save_spec_cache(toolkit, options.cache_file); rc != 0) return rc;
  xml::Node doc = campaign.value().to_xml();
  if (options.repair) {
    // The repair policy is a pure function of the campaign document, so it
    // rides along as a sibling node — the campaign bytes stay identical.
    const auto policy = toolkit.derive_repair_policy(options.positional[0], config);
    if (!policy.ok()) return fail(policy.error().message);
    RuleCensus census;
    census.add(policy.value());
    std::fprintf(stderr,
                 "repair: %zu rule(s) in %zu function(s): %zu truncate, %zu substitute, "
                 "%zu safe-return\n",
                 census.rules, policy.value().functions.size(), census.truncate,
                 census.substitute, census.safe_return);
    doc.add_child(policy.value().to_xml());
  }
  if (options.stats) {
    // Engine telemetry is jobs/reset-dependent, so it rides along only on
    // request — the default document stays bit-identical across both knobs.
    const injector::CampaignEngineStats& engine = campaign.value().engine;
    doc.add_child(engine.to_xml());
    std::fprintf(stderr,
                 "engine: %llu states forked, %llu testbeds built, pages sealed=%llu "
                 "faulted=%llu privatized=%llu dropped=%llu\n",
                 static_cast<unsigned long long>(engine.states_forked),
                 static_cast<unsigned long long>(engine.testbeds_built),
                 static_cast<unsigned long long>(engine.pages_sealed),
                 static_cast<unsigned long long>(engine.pages_faulted),
                 static_cast<unsigned long long>(engine.pages_privatized),
                 static_cast<unsigned long long>(engine.pages_dropped));
    std::fprintf(stderr,
                 "prune: %llu probes implied, %llu executed (implication hit rate %.1f%%), "
                 "%llu/%llu args warm-ordered (%.1f%%), %llu memo case hits\n",
                 static_cast<unsigned long long>(engine.probes_implied),
                 static_cast<unsigned long long>(engine.probes_executed),
                 engine.implication_hit_rate() * 100.0,
                 static_cast<unsigned long long>(engine.args_warm_ordered),
                 static_cast<unsigned long long>(engine.args_probed),
                 engine.warm_start_ratio() * 100.0,
                 static_cast<unsigned long long>(engine.memo_case_hits));
  }
  return emit(xml::serialize(doc), options.out_path);
}

int cmd_report(const Options& options) {
  auto campaign = load_campaign(options.positional[0]);
  if (!campaign.ok()) return fail(campaign.error().message);
  std::fputs(campaign.value().to_table().c_str(), stdout);
  return 0;
}

int cmd_gen_source(const core::Toolkit& toolkit, const Options& options) {
  if (options.type.empty()) return usage();
  const std::string& soname = options.positional[0];

  gen::WrapperBuilder builder(options.type + "-wrapper");
  // Robustness and repair wrappers are generated from a saved campaign.
  std::optional<injector::CampaignResult> campaign;
  if (options.type == "robustness" || options.type == "repair") {
    if (options.campaign_path.empty()) {
      return fail("gen-source --type " + options.type + " requires --campaign <file>");
    }
    auto loaded = load_campaign(options.campaign_path);
    if (!loaded.ok()) return fail(loaded.error().message);
    campaign = std::move(loaded).take();
  }
  // Every type but profiling: prototypes, the type's own generators, a call
  // counter (except security), and the call through to the library.
  if (options.type == "profiling") {
    for (const auto& g : wrappers::fig3_generators()) builder.add(g);
  } else {
    builder.add(gen::prototype_gen());
    if (options.type == "robustness") {
      builder.add(wrappers::arg_check_gen());
    } else if (options.type == "security") {
      builder.add(wrappers::heap_canary_gen()).add(wrappers::stack_guard_gen());
    } else if (options.type == "testing") {
      builder.add(wrappers::error_injection_gen(0.1, options.seed));
    } else if (options.type == "repair") {
      const simlib::SharedLibrary* lib = toolkit.library(soname);
      if (lib == nullptr) return fail("no such library: " + soname);
      auto policy = gen::derive_repair_policy(*campaign, *lib);
      if (!policy.ok()) return fail(policy.error().message);
      builder.add(wrappers::repair_gen(
          std::make_shared<const gen::RepairPolicy>(std::move(policy).take())));
    } else {
      return fail("unknown wrapper type: " + options.type);
    }
    if (options.type != "security") builder.add(gen::call_counter_gen());
    builder.add(gen::caller_gen());
  }

  const auto source = toolkit.wrapper_source(soname, builder, campaign ? &*campaign : nullptr);
  if (!source.ok()) return fail(source.error().message);
  return emit(source.value(), options.out_path);
}

using Render = std::function<std::string()>;

// Emits the rendering --format names: text, xml, or — for documents with a
// wire form — binary. Only the chosen rendering is built.
int emit_format(const Options& options, const Render& text, const Render& xml,
                const Render& binary = nullptr) {
  if (options.format == "text") return emit(text(), options.out_path);
  if (options.format == "xml") return emit(xml(), options.out_path);
  if (options.format == "binary" && binary) return emit(binary(), options.out_path);
  return fail("unknown format: " + options.format +
              (binary ? " (text|xml|binary)" : " (text|xml)"));
}

int cmd_inspect(const core::Toolkit& toolkit, const Options& options) {
  auto exe = demo_executable(options.positional[0]);
  if (!exe.ok()) return fail(exe.error().message);
  linker::LinkMap map = toolkit.inspect(exe.value());
  if (options.validate) {
    // Dynamic cross-check: run the entry point under a tracing interposition
    // and record calls the declared import list is missing (Fig 4 rot).
    linker::CallOutcome outcome;
    map.stale_imports = linker::validate_executable(exe.value(), toolkit.catalog(), &outcome);
    std::fprintf(stderr, "validate: %zu stale import(s), run %s\n", map.stale_imports.size(),
                 outcome.to_string().c_str());
  }
  return emit_format(
      options, [&] { return map.to_text(); }, [&] { return xml::serialize(map.to_xml()); });
}

// A demand-loaded run of one executable (debloat, dossier demo-drift): only
// its static closure starts mapped, and a flight recorder watches the run.
struct DemandRun {
  DemandRun(const core::Toolkit& toolkit, const linker::Executable& exe)
      : report(debloat::compute_reachability(exe, toolkit.catalog())),
        proc(debloat::spawn_debloated(exe, toolkit.catalog(), report)) {
    recorder.set_process_name(exe.name);
    proc->set_observer(&recorder);
    outcome = proc->run(exe.entry);
  }

  const debloat::ReachabilityReport report;
  incident::FlightRecorder recorder;
  std::unique_ptr<linker::Process> proc;
  linker::CallOutcome outcome;
};

// Demand-driven debloating report (docs/debloat.md): computes the static
// closure for a demo executable, runs it under the demand-loading barrier,
// and reports the surface profile. With --cache-file, the closure is also
// persisted as HSSP1 surface-scope entries so later --debloat derives scope
// their campaigns to it.
int cmd_debloat(const core::Toolkit& toolkit, const Options& options) {
  auto exe = demo_executable(options.positional[0]);
  if (!exe.ok()) return fail(exe.error().message);
  if (const int rc = load_spec_cache(toolkit, options.cache_file); rc != 0) return rc;

  const DemandRun run(toolkit, exe.value());
  const debloat::SurfaceProfile profile =
      debloat::capture_surface_profile(*run.proc, run.report, "local");
  std::fprintf(stderr,
               "debloat: run %s; %llu/%llu symbol(s) mapped, %llu violation(s), "
               "%zu dossier(s)\n",
               run.outcome.to_string().c_str(),
               static_cast<unsigned long long>(profile.touched),
               static_cast<unsigned long long>(profile.exported),
               static_cast<unsigned long long>(profile.trapped), run.recorder.dossiers().size());

  if (!options.cache_file.empty()) {
    const std::size_t installed = install_scopes_from(toolkit, exe.value(), run.report);
    if (const int rc = save_spec_cache(toolkit, options.cache_file, installed); rc != 0) return rc;
  }

  return emit_format(
      options, [&] { return run.report.to_text() + profile.to_text(); },
      [&] { return profile.to_xml(); }, [&] { return fleet::encode_surface_binary(profile); });
}

using Encoding = fleet::SimulatorConfig::Encoding;

// Reads --encoding (fleet simulate, serve).
Result<Encoding> parse_encoding(const std::string& name) {
  if (name == "xml") return Encoding::kXml;
  if (name == "binary") return Encoding::kBinary;
  if (name == "mixed") return Encoding::kMixed;
  return Error("unknown encoding: " + name + " (xml|binary|mixed)");
}

int cmd_fleet(const core::Toolkit& toolkit, const Options& options) {
  const std::string& sub = options.positional[0];

  if (sub == "simulate") {
    const auto encoding = parse_encoding(options.encoding);
    if (!encoding.ok()) return fail(encoding.error().message);
    fleet::SimulatorConfig config;
    config.hosts = options.hosts;
    config.docs_per_host = options.docs;
    config.seed = options.seed;
    config.jobs = options.jobs;
    config.encoding = encoding.value();
    const fleet::FleetSimulator simulator(toolkit, config);
    const auto documents = simulator.run();
    std::fprintf(stderr, "%u host(s), %zu document(s)\n", simulator.config().hosts,
                 documents.size());
    return emit(fleet::frame_stream(documents), options.out_path);
  }

  if (sub == "ingest" || sub == "report") {
    if (options.positional.size() < 2) return usage();
    // Reads a framed document stream and runs it through a fleet collector.
    const std::string& path = options.positional[1];
    const auto start = std::chrono::steady_clock::now();
    auto text = read_file(path);
    if (!text.ok()) return fail(text.error().message);
    auto documents = fleet::unframe_stream(text.value());
    if (!documents.ok()) return fail(path + ": " + documents.error().message);
    fleet::CollectorConfig config;
    config.shards = options.shards;
    config.workers = options.jobs;
    config.queue_capacity = options.capacity.value_or(4096);
    fleet::FleetCollector server(config);
    for (std::string& doc : documents.value()) server.submit(std::move(doc));
    server.flush();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (sub == "ingest") {
      std::printf("ingested %llu/%llu document(s) on %u shard(s): %llu malformed, "
                  "%llu dropped (%.0f docs/sec)\n",
                  static_cast<unsigned long long>(server.aggregated()),
                  static_cast<unsigned long long>(server.submitted()), server.shards(),
                  static_cast<unsigned long long>(server.malformed()),
                  static_cast<unsigned long long>(server.dropped()),
                  seconds > 0 ? static_cast<double>(server.submitted()) / seconds : 0.0);
      if (server.malformed() > 0) {
        std::fprintf(stderr, "first decode error: %s\n", server.first_error().c_str());
      }
      return server.malformed() == 0 ? 0 : 1;
    }
    std::fputs(server.render_summary().c_str(), stdout);
    return 0;
  }

  return usage();
}

// Runs one of the §3.4 attack demos with the security wrapper AND an incident
// flight recorder attached, then prints the captured crash dossier. The
// dossier is derived purely from deterministic simulated state, so every
// format is byte-identical across runs.
int emit_dossier(const incident::FlightRecorder& recorder, const Options& options) {
  const incident::Dossier& dossier = recorder.dossiers().front();
  return emit_format(
      options, [&] { return dossier.to_text(); }, [&] { return xml::serialize(dossier.to_xml()); },
      [&] { return fleet::encode_dossier_binary(dossier); });
}

int cmd_dossier(const core::Toolkit& toolkit, const Options& options) {
  const std::string& scenario = options.positional[0];
  if (scenario == "demo-drift") {
    // Surface-drift scenario: the victim's stale import list leaves rand()
    // outside the static closure, so under demand loading the call traps as
    // a surface violation and the recorder snapshots the incident.
    const DemandRun run(toolkit, attacks::drift_victim_executable());
    if (run.recorder.dossiers().empty()) {
      return fail("no detector fired (" + run.outcome.to_string() + "); no dossier captured");
    }
    return emit_dossier(run.recorder, options);
  }
  auto wrapper = toolkit.security_wrapper("libsimc.so.1");
  if (options.repair) {
    // Repair mode: the victim keeps running — the dossier captured is the
    // kRepair snapshot carrying the applied RepairEvents, not a crash.
    const auto campaign = toolkit.derive_robust_api("libsimc.so.1");
    if (!campaign.ok()) return fail(campaign.error().message);
    wrapper = toolkit.repair_wrapper("libsimc.so.1", campaign.value());
  }
  if (!wrapper.ok()) return fail(wrapper.error().message);
  incident::FlightRecorder recorder;
  attacks::AttackResult result;
  if (scenario == "demo-heap") {
    recorder.set_process_name("netd");
    result = attacks::run_heap_smash_attack(toolkit.catalog(), {wrapper.value()},
                                            /*hardened_allocator=*/false, &recorder);
  } else if (scenario == "demo-stack") {
    recorder.set_process_name("reqhandler");
    result = attacks::run_stack_smash_attack(toolkit.catalog(), {wrapper.value()}, &recorder);
  } else {
    return fail("unknown scenario: " + scenario +
                " (try demo-heap, demo-stack or demo-drift)");
  }
  if (recorder.dossiers().empty()) {
    return fail("no detector fired (" + result.outcome.to_string() + "); no dossier captured");
  }
  if (options.repair) {
    std::fprintf(stderr, "repair: %llu repair(s) applied, victim %s (%s)\n",
                 static_cast<unsigned long long>(recorder.repairs_applied()),
                 result.survived ? "survived" : "did NOT survive",
                 result.outcome.to_string().c_str());
  }
  return emit_dossier(recorder, options);
}

// Drives the derivation service with a simulated client fleet: --clients
// clients each submit --requests requests (rotating over the installed
// libraries, the derive endpoint, and the three bundle kinds), then one
// drain on --jobs workers answers everything. The trace is a pure function
// of the options, so the rendered summary is byte-identical across reruns
// and across --jobs values.
int cmd_serve(const core::Toolkit& toolkit, const Options& options) {
  const auto encoding = parse_encoding(options.encoding);
  if (!encoding.ok()) return fail(encoding.error().message);
  const bool mixed = encoding.value() == Encoding::kMixed;
  if (const int rc = load_spec_cache(toolkit, options.cache_file); rc != 0) return rc;
  server::ServerConfig config;
  config.shards = options.shards;
  config.queue_capacity = options.capacity.value_or(4096);
  config.workers = options.jobs;
  config.debloat = options.debloat;
  if (options.debloat && toolkit.export_surface_scopes().empty()) {
    // No cache file supplied scopes: the demo executables' closures stand in,
    // so scoped serving is demonstrable from a cold start.
    std::fprintf(stderr, "debloat: %zu demo surface scope(s) installed\n",
                 install_demo_scopes(toolkit));
  }
  server::DeriveServer server(toolkit, config);

  // Smallest library first keeps tiny traces (few requests) cheap.
  const std::vector<std::string> sonames = {"libsimm.so.1", "libsimio.so.1", "libsimc.so.1"};
  std::vector<server::BundleKind> bundles = {server::BundleKind::kProfiling,
                                             server::BundleKind::kSecurity,
                                             server::BundleKind::kRobustness};
  if (options.repair) bundles.push_back(server::BundleKind::kRepair);
  std::vector<server::DeriveServer::Ticket> tickets;
  std::size_t n = 0;
  for (unsigned client = 0; client < options.clients; ++client) {
    for (unsigned request = 0; request < options.requests; ++request, ++n) {
      server::DeriveRequest req;
      req.soname = sonames[n % sonames.size()];
      req.seed = options.seed;
      req.variants = options.variants;
      // Every fourth request asks for a wrapper bundle instead of a spec.
      if (n % 4 == 3) {
        req.endpoint = server::Endpoint::kBundle;
        req.bundle = bundles[(n / 4) % bundles.size()];
      }
      req.format = (mixed ? (n % 2 == 1) : encoding.value() == Encoding::kBinary)
                       ? server::WireFormat::kBinary
                       : server::WireFormat::kXml;
      tickets.push_back(server.submit(req.encode()));
    }
  }
  server.drain();

  std::fputs(server.render_summary().c_str(), stdout);
  std::printf("  probes executed this run: %llu\n",
              static_cast<unsigned long long>(toolkit.probes_executed()));
  const auto latency = [&server](server::Endpoint endpoint, double quantile) {
    return static_cast<unsigned long long>(server.wall_latency_micros(endpoint, quantile));
  };
  std::fprintf(stderr, "wall latency us: derive p50=%llu p99=%llu, bundle p50=%llu p99=%llu\n",
               latency(server::Endpoint::kDerive, 0.50), latency(server::Endpoint::kDerive, 0.99),
               latency(server::Endpoint::kBundle, 0.50), latency(server::Endpoint::kBundle, 0.99));
  // Per-campaign subsumption-pruning telemetry. Scheduling-dependent (like
  // the wall latencies above): a warm profile learned from whichever campaign
  // finished first shifts the executed/implied split — so stderr only, never
  // the byte-compared summary.
  for (const core::CachedCampaign& entry : toolkit.export_campaigns()) {
    const injector::CampaignEngineStats& engine = entry.result.engine;
    if (engine.args_probed == 0) continue;  // imported from cache: no engine run
    std::fprintf(stderr,
                 "prune %s: %llu implied / %llu executed (hit rate %.1f%%), "
                 "warm-start %.1f%%\n",
                 entry.soname.c_str(), static_cast<unsigned long long>(engine.probes_implied),
                 static_cast<unsigned long long>(engine.probes_executed),
                 engine.implication_hit_rate() * 100.0, engine.warm_start_ratio() * 100.0);
  }

  if (options.stats) {
    // Repair-policy census across everything the drain derived. Stderr like
    // the telemetry above: the byte-compared summary must not depend on
    // whether --repair bundles were in the rotation.
    RuleCensus census;
    const auto policies = toolkit.export_repair_policies();
    for (const core::CachedRepairPolicy& entry : policies) census.add(entry.policy);
    std::fprintf(stderr,
                 "repair: %zu policy(ies) derived, %zu rule(s): %zu truncate, "
                 "%zu substitute, %zu safe-return\n",
                 policies.size(), census.rules, census.truncate, census.substitute,
                 census.safe_return);
  }

  if (const int rc = save_spec_cache(toolkit, options.cache_file); rc != 0) return rc;

  if (!options.out_path.empty()) {
    // Responses in ticket (submission) order, wrapped in the same stream
    // framing fleet documents use — replayable through fleet::unframe_stream.
    std::vector<std::string> responses;
    responses.reserve(tickets.size());
    for (const auto ticket : tickets) {
      const auto response = server.response(ticket);
      responses.push_back(response ? *response : std::string());
    }
    if (const int rc = emit(fleet::frame_stream(responses), options.out_path); rc != 0) return rc;
  }

  const auto stats = server.stats();
  return stats.answered_error == 0 ? 0 : 1;
}

// The virtual-time discrete-event fleet (src/sim): a million cheap host
// tasks on a virtual clock, emitting into the real FleetCollector and
// DeriveServer. The deterministic summary goes to stdout (byte-identical
// for a given --seed at any --jobs/--shards); wall-clock throughput — the
// one nondeterministic number — goes to stderr.
int cmd_simulate(const core::Toolkit& toolkit, const Options& options) {
  const auto traffic = sim::traffic_model_from_name(options.traffic);
  if (!traffic.ok()) return fail(traffic.error().message);
  if (options.hosts == 0 || options.shards == 0 || options.virtual_seconds == 0 ||
      options.capacity == 0u) {
    return fail("simulate: --hosts/--shards/--capacity/--virtual-seconds must be positive");
  }
  sim::SimConfig config;
  config.hosts = options.hosts;
  config.virtual_seconds = options.virtual_seconds;
  config.seed = options.seed;
  config.traffic = traffic.value();
  config.shards = options.shards;
  config.jobs = options.jobs;
  config.debloat = options.debloat;
  if (options.capacity) config.collector.queue_capacity = *options.capacity;

  const auto start = std::chrono::steady_clock::now();
  sim::FleetSim simulation(toolkit, config);
  const sim::SimStats stats = simulation.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const auto& collector = simulation.collector();
  const auto server_stats = simulation.server().stats();
  // The accounting identities the sim exists to exercise, enforced at ANY
  // scale this command runs at — a million-host run that loses one document
  // exits nonzero.
  if (collector.submitted() !=
      collector.aggregated() + collector.malformed() + collector.dropped() + collector.pending()) {
    return fail("simulate: collector accounting identity violated");
  }
  if (server_stats.submitted != server_stats.answered + server_stats.shed + server_stats.pending) {
    return fail("simulate: derive-server accounting identity violated");
  }
  if (collector.malformed() != 0) {
    return fail("simulate: malformed documents: " + collector.first_error());
  }
  if (stats.responses_error != 0) return fail("simulate: derive responses errored");

  std::fprintf(stderr, "simulated %llu hosts / %llu emissions in %.2fs wall (%.0f hosts/s, %.0f docs/s)\n",
               static_cast<unsigned long long>(stats.hosts),
               static_cast<unsigned long long>(stats.emissions), wall,
               static_cast<double>(stats.hosts) / (wall > 0 ? wall : 1e-9),
               static_cast<double>(stats.emissions) / (wall > 0 ? wall : 1e-9));
  return emit(options.stats ? simulation.render_global_summary() : stats.render(),
              options.out_path);
}

int cmd_demo(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional[0] != "attacks") return usage();
  const auto plain = attacks::run_heap_smash_attack(toolkit.catalog(), {});
  std::printf("unprotected heap attack:\n%s\n", plain.narrative.c_str());
  const auto guarded = attacks::run_heap_smash_attack(
      toolkit.catalog(), {toolkit.security_wrapper("libsimc.so.1").value()});
  std::printf("with security wrapper:\n%s", guarded.narrative.c_str());
  return plain.hijack_succeeded && guarded.blocked_by_wrapper ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    if (argc > 2 && std::string(argv[2]) == "--defaults") {
      print_defaults();
    } else {
      print_usage(stdout);
    }
    return 0;
  }
  auto options = parse_options(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "healers: %s\n", options.error().message.c_str());
    return 2;
  }
  // Every other command names a subject: a soname, file, demo or fleet verb.
  const bool subjectless = command == "list-libs" || command == "serve" || command == "simulate";
  if (!subjectless && options.value().positional.empty()) return usage();

  core::Toolkit toolkit;
  if (command == "list-libs") return cmd_list_libs(toolkit);
  if (command == "list-functions") return cmd_list_functions(toolkit, options.value());
  if (command == "decls") return cmd_decls(toolkit, options.value());
  if (command == "derive") return cmd_derive(toolkit, options.value());
  if (command == "report") return cmd_report(options.value());
  if (command == "gen-source") return cmd_gen_source(toolkit, options.value());
  if (command == "inspect") return cmd_inspect(toolkit, options.value());
  if (command == "debloat") return cmd_debloat(toolkit, options.value());
  if (command == "demo") return cmd_demo(toolkit, options.value());
  if (command == "dossier") return cmd_dossier(toolkit, options.value());
  if (command == "fleet") return cmd_fleet(toolkit, options.value());
  if (command == "serve") return cmd_serve(toolkit, options.value());
  if (command == "simulate") return cmd_simulate(toolkit, options.value());
  return usage();
}
