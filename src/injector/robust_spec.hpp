// Robust-API specifications — the output of fault injection (paper Fig 2:
// "searching robust argument types ... generates the robust API for a
// shared library").
//
// For every argument of every probed function we record the verdict of each
// test type (how many probes, how many robustness failures, by outcome
// kind) and fold the profile into DerivedChecks: the exact preconditions a
// fault-containment wrapper must enforce so the call cannot crash the
// process. Specs serialize to self-describing XML (demo §3.1's declaration
// files carry these) and parse back, so campaigns can run offline and
// wrapper generation can consume stored specs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linker/process.hpp"
#include "parser/ctypes.hpp"
#include "typelattice/testtype.hpp"
#include "xml/xml.hpp"

namespace healers::injector {

// Aggregated result of probing one argument with one test type.
struct TypeVerdict {
  lattice::TestTypeId id = lattice::TestTypeId::kNull;
  int probes = 0;
  int failures = 0;  // crash + hang + abort + hijack
  int crashes = 0;
  int hangs = 0;
  int aborts = 0;
  std::string first_failure;  // detail of the first failing probe

  // Subsumption-pruning provenance: true when this verdict was synthesized
  // from a dominating type's pass instead of executed (implied_from names
  // the dominator). In-memory only, like ArgSpec::passing_int_values — an
  // implied verdict is byte-identical to the executed one, so serializing
  // the provenance would break the pruned-vs-unpruned XML identity.
  bool implied = false;
  lattice::TestTypeId implied_from = lattice::TestTypeId::kNull;

  [[nodiscard]] bool failed() const noexcept { return failures > 0; }
};

// The wrapper-enforceable preconditions derived from an argument's profile.
struct DerivedChecks {
  bool require_nonnull = false;
  bool require_mapped = false;      // pointer must be a mapped, readable address
  bool require_writable = false;    // ... and writable
  bool require_terminated = false;  // must contain a NUL within the scan cap
  bool require_size_check = false;  // destination size matters (tiny buffers failed)
  bool require_heap_pointer = false;  // only live malloc results acceptable
  bool require_file = false;          // only live FILE* acceptable
  bool require_callback = false;      // only registered application callbacks
  std::optional<std::pair<std::int64_t, std::int64_t>> range;  // integral domain

  [[nodiscard]] bool any() const noexcept {
    return require_nonnull || require_mapped || require_writable || require_terminated ||
           require_size_check || require_heap_pointer || require_file || require_callback ||
           range.has_value();
  }
};

struct ArgSpec {
  int index = 0;  // 1-based
  std::string ctype;
  parser::TypeClass cls = parser::TypeClass::kIntegral;
  std::vector<TypeVerdict> verdicts;
  DerivedChecks checks;
  // Concrete integral probe values that did NOT fail — the raw material for
  // range derivation. Campaign-internal; not serialized.
  std::vector<std::int64_t> passing_int_values;

  // Human name of the weakest safe argument type, e.g.
  // "non-NULL writable NUL-terminated buffer (size-checked)".
  [[nodiscard]] std::string safe_type_name() const;
  [[nodiscard]] const TypeVerdict* verdict(lattice::TestTypeId id) const noexcept;
};

struct RobustSpec {
  std::string function;
  std::string library;
  std::string declaration;  // canonical prototype text
  std::vector<ArgSpec> args;
  std::uint64_t total_probes = 0;
  std::uint64_t total_failures = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hangs = 0;
  std::uint64_t aborts = 0;
  bool skipped_noreturn = false;  // exit/abort are not probed

  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Result<RobustSpec> from_xml(const xml::Node& node);
};

// Operational counters from the campaign engine's COW state machinery: how
// many probe states were forked from the shared pristine image, how many
// full processes had to be built, and the page traffic of the write barrier
// (DESIGN.md, "COW testbed states"). Telemetry, NOT results: several of
// these depend on worker count, reset mode, and whether a cached pristine
// image was shared, so they are excluded from to_xml()/from_xml() — the
// campaign document stays bit-identical across --jobs and reset modes.
// `healers derive --stats` appends them as a separate <engine> node.
//
// The probes_* / *_implied counters report subsumption pruning (DESIGN.md,
// "Subsumption pruning"): how many probe cases actually ran vs were
// synthesized from the implication lattice, the integral value-memo hits,
// and how many arguments were ordered by a warm cross-campaign profile.
// Like the page counters, they are telemetry: the executed/implied split
// can shift with worker count (profile learning merges differently at
// jobs > 1) while the campaign document stays bit-identical.
struct CampaignEngineStats {
  std::uint64_t states_forked = 0;     // probe-state activations (fork/reset)
  std::uint64_t testbeds_built = 0;    // full process constructions
  std::uint64_t pages_sealed = 0;      // pages frozen building pristine images
  std::uint64_t pages_faulted = 0;     // lazy copy-ins from the shared image
  std::uint64_t pages_privatized = 0;  // COW breaks by probe writes
  std::uint64_t pages_dropped = 0;     // private pages discarded by resets
  std::uint64_t probes_executed = 0;   // probe cases that ran a supervised call
  std::uint64_t probes_implied = 0;    // probe cases synthesized, zero testbed work
  std::uint64_t verdicts_implied = 0;  // whole type verdicts synthesized
  std::uint64_t memo_case_hits = 0;    // integral cases answered by the value memo
  std::uint64_t args_probed = 0;       // argument walks run
  std::uint64_t args_warm_ordered = 0;  // ... ordered by a learned signature profile

  // probes_implied / (probes_executed + probes_implied); 0 when idle.
  [[nodiscard]] double implication_hit_rate() const noexcept;
  // args_warm_ordered / args_probed; 0 when idle.
  [[nodiscard]] double warm_start_ratio() const noexcept;

  [[nodiscard]] xml::Node to_xml() const;
};

// A whole library's campaign output.
struct CampaignResult {
  std::string library;
  std::uint64_t seed = 0;
  std::vector<RobustSpec> specs;
  // Engine telemetry for the run that produced this result (zero for results
  // parsed back from XML). Deliberately not serialized by to_xml(); see
  // CampaignEngineStats.
  CampaignEngineStats engine;

  [[nodiscard]] std::uint64_t total_probes() const noexcept;
  [[nodiscard]] std::uint64_t total_failures() const noexcept;
  [[nodiscard]] std::size_t functions_with_failures() const noexcept;

  [[nodiscard]] const RobustSpec* spec(const std::string& function) const noexcept;

  // The Fig 2 report: one row per function with probe/failure counts and
  // the derived safe types.
  [[nodiscard]] std::string to_table() const;
  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Result<CampaignResult> from_xml(const xml::Node& node);
};

}  // namespace healers::injector
