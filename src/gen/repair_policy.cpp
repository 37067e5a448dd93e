#include "gen/repair_policy.hpp"

#include "xml/archive.hpp"

namespace healers::gen {

namespace {

using simlib::RepairAction;

std::string size_text(const std::optional<parser::SizeExpr>& expr) {
  return expr.has_value() ? expr->to_string() : std::string();
}

// Walks a write-size expression collecting the cstrlen(k) operands: the one
// with k != dest is the copy source of a bounded substitution; cstrlen(dest)
// means the write appends to the existing string (strcat-style).
void find_copy_source(const parser::SizeExpr& expr, int dest_arg, int* src_arg, bool* append) {
  if (expr.kind() == parser::SizeExpr::Kind::kCstrlen) {
    if (expr.arg_index() == dest_arg) {
      *append = true;
    } else if (*src_arg == 0) {
      *src_arg = expr.arg_index();
    }
    return;
  }
  for (const parser::SizeExpr& child : expr.children()) {
    find_copy_source(child, dest_arg, src_arg, append);
  }
}

}  // namespace

// The <repair-policy> document. It has no binary form of its own: the HSRP1
// spec-cache entry carries this XML.
template <class Ar>
void xml_fields(Ar& ar, RepairPolicy& policy) {
  ar.attr("library", policy.library);
  ar.attr("seed", policy.seed);
  ar.derived("rules", [&] { return std::to_string(policy.rule_count()); });
  ar.each("function", policy.functions, [](auto& ar, FunctionRepairPolicy& fn) {
    ar.attr("name", fn.function);
    ar.each("rule", fn.rules, [](auto& ar, RepairRule& rule) {
      ar.attr("arg", rule.arg_index);
      ar.required("action", xml::Named{rule.action, RepairAction::kSafeReturn});
      ar.attr_if(rule.clamp_arg != 0, "clamp_arg", rule.clamp_arg);
      ar.attr_if(rule.src_arg != 0, "src_arg", rule.src_arg);
      ar.attr_if(rule.append, "append", rule.append);
      ar.attr_if(rule.write_size.has_value(), "size", rule.write_size);
      ar.attr("provenance", rule.provenance);
    });
  });
}

const RepairRule* FunctionRepairPolicy::rule_for_arg(int index_1based) const noexcept {
  for (const RepairRule& rule : rules) {
    if (rule.arg_index == index_1based) return &rule;
  }
  return nullptr;
}

const FunctionRepairPolicy* RepairPolicy::policy(const std::string& function) const noexcept {
  for (const FunctionRepairPolicy& fn : functions) {
    if (fn.function == function) return &fn;
  }
  return nullptr;
}

std::size_t RepairPolicy::rule_count() const noexcept {
  std::size_t count = 0;
  for (const FunctionRepairPolicy& fn : functions) count += fn.rules.size();
  return count;
}

bool operator==(const RepairRule& a, const RepairRule& b) {
  return a.arg_index == b.arg_index && a.action == b.action && a.clamp_arg == b.clamp_arg &&
         a.src_arg == b.src_arg && a.append == b.append &&
         size_text(a.write_size) == size_text(b.write_size) && a.provenance == b.provenance;
}

xml::Node RepairPolicy::to_xml() const { return xml::write("repair-policy", *this); }

Result<RepairPolicy> RepairPolicy::from_xml(const xml::Node& node) {
  return xml::read<RepairPolicy>(node, "repair-policy");
}

Result<RepairPolicy> derive_repair_policy(const injector::CampaignResult& campaign,
                                          const simlib::SharedLibrary& lib) {
  RepairPolicy out;
  out.library = lib.soname();
  out.seed = campaign.seed;
  for (const std::string& name : lib.names()) {
    const Result<parser::ManPage>& page = lib.page(name);
    if (!page.ok()) return Error("repair-policy for " + name + ": " + page.error().message);
    const injector::RobustSpec* spec = campaign.spec(name);
    if (spec == nullptr) continue;

    FunctionRepairPolicy fn;
    fn.function = name;
    for (const injector::ArgSpec& arg : spec->args) {
      const parser::ArgAnnotation* ann = page.value().arg(arg.index);
      if (ann == nullptr) continue;

      // Like the robustness wrapper's kDerivedAndAnnotations mode: the man
      // page supplies the write boundary, the campaign supplies the evidence
      // the pointer crashes when that boundary is violated. require_size_check
      // (tiny-writable probes failed) is the strongest signal, but a campaign
      // whose valid length arguments were all small never exercises a tiny
      // destination — so any proven pointer crash on the destination admits
      // the rule.
      const bool dest_crash_prone = arg.checks.require_size_check ||
                                    arg.checks.require_writable ||
                                    arg.checks.require_mapped || arg.checks.require_nonnull;
      if (dest_crash_prone && ann->write_size.has_value()) {
        RepairRule rule;
        rule.arg_index = arg.index;
        rule.write_size = ann->write_size;
        if (ann->write_size->kind() == parser::SizeExpr::Kind::kArg) {
          // memcpy-class: the caller passes the write length explicitly, so
          // failure-oblivious truncation can clamp that very argument.
          rule.action = RepairAction::kTruncateWrite;
          rule.clamp_arg = ann->write_size->arg_index();
        } else {
          // strcpy/sprintf-class: the length is computed from other inputs;
          // substitute a bounded variant capped at the destination extent.
          rule.action = RepairAction::kSubstituteBounded;
          find_copy_source(*ann->write_size, arg.index, &rule.src_arg, &rule.append);
        }
        rule.provenance =
            "campaign " + campaign.library + ": " + name + " arg " + std::to_string(arg.index) +
            (arg.checks.require_size_check
                 ? " requires size check (tiny-writable probes failed)"
                 : " crashes on invalid destinations") +
            "; man: BUF WRITE SIZE " + ann->write_size->to_string();
        fn.rules.push_back(std::move(rule));
        continue;
      }

      // Only NUL-terminated input strings get a safe-return rule: their
      // validity is decidable without a separate length argument. Sized read
      // buffers stay with the detect layer.
      const bool read_pointer = !ann->write_size.has_value() && ann->cstring;
      const bool crash_prone = arg.checks.require_terminated || arg.checks.require_mapped ||
                               arg.checks.require_nonnull;
      if (read_pointer && crash_prone) {
        // Pure input pointer the campaign proved crash-prone: when it is
        // invalid at runtime, skip the call and manufacture the documented
        // error value instead of faulting (or synthesize an empty input for
        // copy-style callees — the hook decides which at the call site).
        RepairRule rule;
        rule.arg_index = arg.index;
        rule.action = RepairAction::kSafeReturn;
        rule.provenance = "campaign " + campaign.library + ": " + name + " arg " +
                          std::to_string(arg.index) +
                          " crashes on invalid input pointers; man: read-only";
        fn.rules.push_back(std::move(rule));
      }
    }
    if (!fn.rules.empty()) out.functions.push_back(std::move(fn));
  }
  return out;
}

}  // namespace healers::gen
