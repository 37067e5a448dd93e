#include "injector/robust_spec.hpp"

#include <sstream>

#include "xml/archive.hpp"

namespace healers::injector {

const TypeVerdict* ArgSpec::verdict(lattice::TestTypeId id) const noexcept {
  for (const TypeVerdict& v : verdicts) {
    if (v.id == id) return &v;
  }
  return nullptr;
}

std::string ArgSpec::safe_type_name() const {
  if (cls == parser::TypeClass::kPointer) {
    if (checks.require_file) return "live FILE* from fopen";
    if (checks.require_heap_pointer) return "live malloc'd pointer";
    if (checks.require_callback) return "registered callback function pointer";
    std::vector<std::string> parts;
    if (checks.require_nonnull) parts.emplace_back("non-NULL");
    if (checks.require_writable) parts.emplace_back("writable");
    else if (checks.require_mapped) parts.emplace_back("mapped");
    if (checks.require_terminated) parts.emplace_back("NUL-terminated");
    if (parts.empty()) return "any pointer";
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ' ';
      out += parts[i];
    }
    out += " buffer";
    if (checks.require_size_check) out += " (size-checked)";
    return out;
  }
  if (cls == parser::TypeClass::kIntegral) {
    if (checks.range.has_value()) {
      return "int in [" + std::to_string(checks.range->first) + ", " +
             std::to_string(checks.range->second) + "]";
    }
    return "any int";
  }
  if (cls == parser::TypeClass::kFloating) return "any double";
  return "void";
}

// The <robust-spec> element; its binary twin is the spec part of fields()
// in server/codec.cpp.
template <class Ar>
void xml_fields(Ar& ar, RobustSpec& spec) {
  ar.required("function", spec.function);
  ar.attr("library", spec.library);
  ar.attr("probes", spec.total_probes);
  ar.attr("failures", spec.total_failures);
  ar.attr("crashes", spec.crashes);
  ar.attr("hangs", spec.hangs);
  ar.attr("aborts", spec.aborts);
  ar.attr_if(spec.skipped_noreturn, "skipped", xml::Word{spec.skipped_noreturn, "noreturn"});
  ar.text("prototype", spec.declaration);
  ar.each("arg", spec.args, [](auto& ar, ArgSpec& arg) {
    ar.required("index", arg.index);
    ar.check(arg.index >= 1, "index");
    ar.attr("ctype", arg.ctype);
    ar.attr("class", xml::Named{arg.cls, parser::TypeClass::kPointer});
    ar.derived("safe-type", [&] { return arg.safe_type_name(); });
    ar.each("verdict", arg.verdicts, [](auto& ar, TypeVerdict& verdict) {
      ar.required("type", xml::Named{verdict.id, lattice::TestTypeId::kFInf});
      ar.attr("probes", verdict.probes);
      ar.attr("failures", verdict.failures);
      ar.attr("crashes", verdict.crashes);
      ar.attr("hangs", verdict.hangs);
      ar.attr("aborts", verdict.aborts);
      ar.attr_if(!verdict.first_failure.empty(), "first", verdict.first_failure);
    });
    ar.child("checks", [&checks = arg.checks](auto& ar) {
      const auto flag = [&ar](std::string_view key, bool& on) { ar.attr_if(on, key, on); };
      flag("nonnull", checks.require_nonnull);
      flag("mapped", checks.require_mapped);
      flag("writable", checks.require_writable);
      flag("terminated", checks.require_terminated);
      flag("size", checks.require_size_check);
      flag("heapptr", checks.require_heap_pointer);
      flag("file", checks.require_file);
      flag("callback", checks.require_callback);
      ar.attr_pair("range_lo", "range_hi", checks.range);
    });
  });
}

// The <campaign> document; its binary twin is fields() in server/codec.cpp.
template <class Ar>
void xml_fields(Ar& ar, CampaignResult& campaign) {
  ar.attr("library", campaign.library);
  ar.attr("seed", campaign.seed);
  ar.each("robust-spec", campaign.specs, [](auto& ar, RobustSpec& spec) { xml_fields(ar, spec); });
}

xml::Node RobustSpec::to_xml() const { return xml::write("robust-spec", *this); }

Result<RobustSpec> RobustSpec::from_xml(const xml::Node& node) {
  return xml::read<RobustSpec>(node, "robust-spec");
}

std::uint64_t CampaignResult::total_probes() const noexcept {
  std::uint64_t n = 0;
  for (const RobustSpec& spec : specs) n += spec.total_probes;
  return n;
}

std::uint64_t CampaignResult::total_failures() const noexcept {
  std::uint64_t n = 0;
  for (const RobustSpec& spec : specs) n += spec.total_failures;
  return n;
}

std::size_t CampaignResult::functions_with_failures() const noexcept {
  std::size_t n = 0;
  for (const RobustSpec& spec : specs) {
    if (spec.total_failures > 0) ++n;
  }
  return n;
}

const RobustSpec* CampaignResult::spec(const std::string& function) const noexcept {
  for (const RobustSpec& s : specs) {
    if (s.function == function) return &s;
  }
  return nullptr;
}

std::string CampaignResult::to_table() const {
  std::ostringstream out;
  out << "robust API derivation for " << library << " (seed " << seed << ")\n";
  out << "----------------------------------------------------------------------\n";
  out << "function        probes  fail  crash  hang  abort  derived safe types\n";
  out << "----------------------------------------------------------------------\n";
  for (const RobustSpec& spec : specs) {
    std::string name = spec.function;
    name.resize(15, ' ');
    out << name << ' ';
    if (spec.skipped_noreturn) {
      out << "   (noreturn: skipped)\n";
      continue;
    }
    auto col = [&out](std::uint64_t v, int width) {
      std::string s = std::to_string(v);
      out << std::string(width > static_cast<int>(s.size())
                             ? static_cast<std::size_t>(width) - s.size()
                             : 0,
                         ' ')
          << s << ' ';
    };
    col(spec.total_probes, 6);
    col(spec.total_failures, 5);
    col(spec.crashes, 6);
    col(spec.hangs, 5);
    col(spec.aborts, 6);
    out << ' ';
    bool first = true;
    for (const ArgSpec& arg : spec.args) {
      if (!first) out << "; ";
      out << "a" << arg.index << ": " << arg.safe_type_name();
      first = false;
    }
    if (spec.args.empty()) out << "(no arguments)";
    out << '\n';
  }
  out << "----------------------------------------------------------------------\n";
  out << "totals: " << specs.size() << " functions, " << total_probes() << " probes, "
      << total_failures() << " robustness failures in " << functions_with_failures()
      << " functions\n";
  return out.str();
}

double CampaignEngineStats::implication_hit_rate() const noexcept {
  const std::uint64_t total = probes_executed + probes_implied;
  return total == 0 ? 0.0 : static_cast<double>(probes_implied) / static_cast<double>(total);
}

double CampaignEngineStats::warm_start_ratio() const noexcept {
  return args_probed == 0 ? 0.0
                          : static_cast<double>(args_warm_ordered) /
                                static_cast<double>(args_probed);
}

xml::Node CampaignEngineStats::to_xml() const {
  xml::Node node("engine");
  node.set_attr("states-forked", std::to_string(states_forked));
  node.set_attr("testbeds-built", std::to_string(testbeds_built));
  node.set_attr("pages-sealed", std::to_string(pages_sealed));
  node.set_attr("pages-faulted", std::to_string(pages_faulted));
  node.set_attr("pages-privatized", std::to_string(pages_privatized));
  node.set_attr("pages-dropped", std::to_string(pages_dropped));
  node.set_attr("probes-executed", std::to_string(probes_executed));
  node.set_attr("probes-implied", std::to_string(probes_implied));
  node.set_attr("verdicts-implied", std::to_string(verdicts_implied));
  node.set_attr("memo-case-hits", std::to_string(memo_case_hits));
  node.set_attr("args-probed", std::to_string(args_probed));
  node.set_attr("args-warm-ordered", std::to_string(args_warm_ordered));
  return node;
}

xml::Node CampaignResult::to_xml() const { return xml::write("campaign", *this); }

Result<CampaignResult> CampaignResult::from_xml(const xml::Node& node) {
  return xml::read<CampaignResult>(node, "campaign");
}

}  // namespace healers::injector
