// Golden XML documents shared by test_wire_golden.
//
// build_xml_goldens() writes every XML root HEALERS both writes and reads
// back (<profile>, <dossier>, <surface-profile>, <campaign>,
// <repair-policy>, <derive-request>, <derive-response>) from the fixed
// inputs of wire_goldens.hpp. Two of them get a second golden cut from the
// libsimc campaign and repair policy the dossier input derives, because the
// libsimm ones carry no checks, ranges, failures or rules. The checked-in
// fixture tests/fixtures/xml_goldens.txt records the documents, and
// tests/fixtures/xml_verdicts.txt records how the readers judged a
// structural mutant corpus built from them (xml_mutant_verdicts below).
// Both fixtures were first written from the hand-written XML readers and
// writers these documents started with. The golden text must never move;
// a verdict moves only where a reader was deliberately made stricter.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gen/repair_policy.hpp"
#include "wire_goldens.hpp"
#include "xml/xml.hpp"

namespace healers::wiretest {

// Parses one XML document of a root and writes the result back; nullopt
// when the reader rejects the document.
using XmlRoundTrip = std::optional<std::string> (*)(std::string_view);

template <class T, class Read, class Write>
std::optional<std::string> xml_reencode(std::string_view text, Read read, Write write) {
  auto parsed = xml::parse(text);
  if (!parsed.ok()) return std::nullopt;
  Result<T> decoded = read(parsed.value());
  if (!decoded.ok()) return std::nullopt;
  return write(decoded.value());
}

struct XmlRoot {
  std::string_view name;
  XmlRoundTrip round_trip;
};

inline const XmlRoot kXmlRoots[] = {
    {"profile",
     [](std::string_view text) {
       return xml_reencode<profile::ProfileReport>(
           text, [](const xml::Node& n) { return profile::from_xml(n); },
           [](const profile::ProfileReport& r) { return xml::serialize(profile::to_xml(r)); });
     }},
    {"dossier",
     [](std::string_view text) {
       return xml_reencode<incident::Dossier>(
           text, [](const xml::Node& n) { return incident::from_xml(n); },
           [](const incident::Dossier& d) { return xml::serialize(d.to_xml()); });
     }},
    {"surface-profile",
     [](std::string_view text) {
       return xml_reencode<debloat::SurfaceProfile>(
           text, [](const xml::Node& n) { return debloat::surface_from_xml(n); },
           [](const debloat::SurfaceProfile& p) { return p.to_xml(); });
     }},
    {"campaign",
     [](std::string_view text) {
       return xml_reencode<injector::CampaignResult>(
           text, [](const xml::Node& n) { return injector::CampaignResult::from_xml(n); },
           [](const injector::CampaignResult& c) { return xml::serialize(c.to_xml()); });
     }},
    {"repair-policy",
     [](std::string_view text) {
       return xml_reencode<gen::RepairPolicy>(
           text, [](const xml::Node& n) { return gen::RepairPolicy::from_xml(n); },
           [](const gen::RepairPolicy& p) { return xml::serialize(p.to_xml()); });
     }},
    {"derive-request",
     [](std::string_view text) {
       return xml_reencode<server::DeriveRequest>(
           text, [](const xml::Node& n) { return server::DeriveRequest::from_xml(n); },
           [](const server::DeriveRequest& r) { return xml::serialize(r.to_xml()); });
     }},
    {"derive-response",
     [](std::string_view text) {
       return xml_reencode<server::DeriveResponse>(
           text, [](const xml::Node& n) { return server::DeriveResponse::from_xml(n); },
           [](const server::DeriveResponse& r) { return xml::serialize(r.to_xml()); });
     }},
};

// A golden is named "<root>" or "<root>:<variant>".
inline const XmlRoot& xml_root_of(std::string_view golden_name) {
  const std::string_view root = golden_name.substr(0, golden_name.find(':'));
  for (const XmlRoot& entry : kXmlRoots) {
    if (entry.name == root) return entry;
  }
  throw std::logic_error("no XML root for golden " + std::string(golden_name));
}

// --- fixed inputs ----------------------------------------------------------

template <class T, class Name>
std::vector<T> only(const std::vector<T>& items, const std::set<std::string>& keep, Name name) {
  std::vector<T> out;
  for (const T& item : items) {
    if (keep.count(name(item)) != 0) out.push_back(item);
  }
  return out;
}

inline std::vector<Golden> build_xml_goldens() {
  core::Toolkit toolkit;
  std::vector<Golden> goldens;
  const incident::Dossier dossier = dossier_input(toolkit);
  goldens.push_back({"profile", xml::serialize(profile::to_xml(profile_input()))});
  goldens.push_back({"dossier", xml::serialize(dossier.to_xml())});
  goldens.push_back({"surface-profile", surface_input(toolkit).to_xml()});

  core::Toolkit campaign_toolkit;
  const injector::CampaignResult campaign =
      campaign_toolkit.derive_robust_api("libsimm.so.1", seed42()).value();
  goldens.push_back({"campaign", xml::serialize(campaign.to_xml())});
  // The libsimc campaign behind the dossier, cut to a noreturn function, a
  // heap pointer, a range and a size-checked buffer.
  injector::CampaignResult libsimc = toolkit.derive_robust_api("libsimc.so.1").value();
  libsimc.specs = only(libsimc.specs, {"abort", "free", "isalpha", "strcpy"},
                       [](const injector::RobustSpec& spec) { return spec.function; });
  goldens.push_back({"campaign:libsimc", xml::serialize(libsimc.to_xml())});

  goldens.push_back({"repair-policy", xml::serialize(campaign_toolkit
                                                         .derive_repair_policy("libsimm.so.1",
                                                                               seed42())
                                                         .value()
                                                         .to_xml())});
  // One rule of each action: safe return, truncation, appending and plain
  // bounded substitution.
  gen::RepairPolicy policy = toolkit.derive_repair_policy("libsimc.so.1").value();
  policy.functions = only(policy.functions, {"atoi", "memcpy", "strcat", "strcpy"},
                          [](const gen::FunctionRepairPolicy& fn) { return fn.function; });
  goldens.push_back({"repair-policy:libsimc", xml::serialize(policy.to_xml())});

  goldens.push_back({"derive-request:derive", xml::serialize(derive_request_input().to_xml())});
  goldens.push_back({"derive-request:bundle", xml::serialize(bundle_request_input().to_xml())});
  for (const auto& [status, response] : response_inputs(campaign.total_probes())) {
    goldens.push_back({"derive-response:" + status, response.encode(server::WireFormat::kXml)});
  }
  return goldens;
}

// --- fixture ---------------------------------------------------------------

inline constexpr std::string_view kXmlGoldenMarker = "=== ";

// xml_goldens.txt: "=== <name>" opens a golden, whose document is every
// following line up to the next marker, each ending in '\n'; '#' lines
// before the first marker are comments.
inline std::string write_xml_goldens(const std::vector<Golden>& goldens) {
  std::string out =
      "# XML goldens (tests/xml_goldens.hpp). Each \"=== <name>\" line opens one\n"
      "# document; never edit by hand.\n";
  for (const Golden& golden : goldens) {
    out += std::string(kXmlGoldenMarker) + golden.name + "\n" + golden.bytes;
  }
  return out;
}

inline std::vector<Golden> load_xml_goldens() {
  std::vector<Golden> goldens;
  std::istringstream in(read_fixture("xml_goldens.txt"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kXmlGoldenMarker, 0) == 0) {
      goldens.push_back({line.substr(kXmlGoldenMarker.size()), ""});
    } else if (!goldens.empty()) {
      goldens.back().bytes += line + "\n";
    }
  }
  return goldens;
}

// --- mutant corpus ---------------------------------------------------------

// The values every attribute is set to in turn: empty, not a number, a sign,
// a leading space, hex, just beyond 32 bits and just beyond 64 bits.
inline const std::vector<std::string> kAttrValues = {
    "", "abc", "-1", "+1", " 1", "0x10", "4294967297", "18446744073709551616"};

// One structural edit of a parsed golden.
struct XmlMutation {
  enum class Kind { kRename, kDelete, kDuplicate, kDropAttr, kSetAttr };
  const xml::Node* target = nullptr;
  Kind kind = Kind::kRename;
  std::string key;
  std::string value;
};

inline xml::Node clone_with(const xml::Node& node, const XmlMutation& m) {
  using Kind = XmlMutation::Kind;
  const bool here = &node == m.target;
  xml::Node out(here && m.kind == Kind::kRename ? "renamed" : node.name());
  for (const auto& [key, value] : node.attrs()) {
    if (here && key == m.key && m.kind == Kind::kDropAttr) continue;
    out.set_attr(key, here && key == m.key && m.kind == Kind::kSetAttr ? m.value : value);
  }
  out.set_text(node.text());
  for (const auto& child : node.children()) {
    const bool target = child.get() == m.target;
    if (target && m.kind == Kind::kDelete) continue;
    out.add_child(clone_with(*child, m));
    if (target && m.kind == Kind::kDuplicate) out.add_child(clone_with(*child, m));
  }
  return out;
}

inline std::string verdict_token(const std::optional<std::string>& reencoded) {
  if (!reencoded) return "x";
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fleet::fnv1a(*reencoded)));
  return hash;
}

// Calls `visit(path, mutants)` for every element and attribute of the
// golden, in document order. The root's line holds the golden itself and
// the root renamed; another element's holds it deleted and duplicated; an
// attribute's holds it deleted and then set to each of kAttrValues. A path
// is "/root/child[i]..." with i counting same-named siblings from 1, and
// "@key" for an attribute.
inline void for_each_xml_mutant(
    const Golden& golden,
    const std::function<void(const std::string&, const std::vector<std::string>&)>& visit) {
  const xml::Node root = xml::parse(golden.bytes).take();
  using Kind = XmlMutation::Kind;
  const auto mutant = [&root](XmlMutation m) { return xml::serialize(clone_with(root, m)); };
  const std::function<void(const xml::Node&, const std::string&)> walk =
      [&](const xml::Node& node, const std::string& path) {
        if (&node == &root) {
          visit(path, {golden.bytes, mutant({&node, Kind::kRename, "", ""})});
        } else {
          visit(path, {mutant({&node, Kind::kDelete, "", ""}),
                       mutant({&node, Kind::kDuplicate, "", ""})});
        }
        for (const auto& [key, value] : node.attrs()) {
          std::vector<std::string> mutants = {mutant({&node, Kind::kDropAttr, key, ""})};
          for (const std::string& bad : kAttrValues) {
            mutants.push_back(mutant({&node, Kind::kSetAttr, key, bad}));
          }
          visit(path + "@" + key, mutants);
        }
        std::map<std::string, int> seen;
        for (const auto& child : node.children()) {
          walk(*child,
               path + "/" + child->name() + "[" + std::to_string(++seen[child->name()]) + "]");
        }
      };
  walk(root, "/" + root.name());
}

// One line per element or attribute: "<golden> <path> <verdicts...>", a
// verdict being "x" for a rejected mutant or the 16-hex-digit fnv1a of the
// accepted mutant's re-encoding.
inline std::string xml_mutant_verdicts(const Golden& golden) {
  const XmlRoundTrip round_trip = xml_root_of(golden.name).round_trip;
  std::ostringstream out;
  for_each_xml_mutant(golden,
                      [&](const std::string& path, const std::vector<std::string>& mutants) {
                        out << golden.name << ' ' << path;
                        for (const std::string& m : mutants) {
                          out << ' ' << verdict_token(round_trip(m));
                        }
                        out << '\n';
                      });
  return out.str();
}

}  // namespace healers::wiretest
