#include "incident/dossier.hpp"

#include <array>

namespace healers::incident {

namespace {

using simlib::DetectionKind;
using simlib::RepairAction;

constexpr std::array<DetectionKind, 7> kAllKinds = {
    DetectionKind::kArgCheck,    DetectionKind::kHeapSmash,   DetectionKind::kStackSmash,
    DetectionKind::kAccessFault, DetectionKind::kErrorInject, DetectionKind::kRepair,
    DetectionKind::kSurfaceViolation};

constexpr std::array<RepairAction, 4> kAllActions = {
    RepairAction::kTruncateWrite, RepairAction::kSubstituteBounded,
    RepairAction::kSynthesizeInput, RepairAction::kSafeReturn};

// Reads each listed numeric attribute (decimal or 0x-hex) in order; the
// first missing or malformed one is the error ("dossier: malformed seq").
Status read_numbers(const xml::Node& node,
                    std::initializer_list<std::pair<const char*, std::uint64_t*>> fields) {
  for (const auto& [key, target] : fields) {
    auto value = node.attr_uint(key, std::nullopt, /*hex=*/true);
    if (!value.ok()) return Error("dossier: " + value.error().message);
    *target = value.value();
  }
  return Status::success();
}

std::string attr_or_empty(const xml::Node& node, std::string_view key) {
  const std::string* value = node.attr(key);
  return value == nullptr ? std::string() : *value;
}

}  // namespace

std::string hex_addr(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  if (value == 0) return "0x0";
  std::string out;
  while (value != 0) {
    out.insert(out.begin(), kDigits[value & 0xF]);
    value >>= 4;
  }
  return "0x" + out;
}

Result<DetectionKind> detection_kind_from_name(const std::string& name) {
  for (const DetectionKind kind : kAllKinds) {
    if (simlib::to_string(kind) == name) return kind;
  }
  return Error("dossier: unknown detector '" + name + "'");
}

Result<RepairAction> repair_action_from_name(const std::string& name) {
  for (const RepairAction action : kAllActions) {
    if (simlib::to_string(action) == name) return action;
  }
  return Error("dossier: unknown repair action '" + name + "'");
}

xml::Node Dossier::to_xml() const {
  xml::Node root("dossier");
  root.set_attr("process", process);
  root.set_attr("detector", simlib::to_string(detector));
  root.set_attr("symbol", symbol);
  root.set_attr("seq", std::to_string(seq));
  root.set_attr("tick", std::to_string(tick));
  root.set_attr("cycles", std::to_string(cycles));
  root.set_attr("fault_addr", hex_addr(fault_addr));
  root.add_text_child("detail", detail);

  xml::Node& call = root.add_child("call");
  for (const std::string& arg : args) {
    call.add_child("arg").set_attr("value", arg);
  }

  xml::Node& trace_node = root.add_child("trace");
  for (const TraceEntry& entry : trace) {
    xml::Node& row = trace_node.add_child("event");
    row.set_attr("seq", std::to_string(entry.seq));
    row.set_attr("symbol", entry.symbol);
    row.set_attr("tick", std::to_string(entry.tick));
    row.set_attr("cycles", std::to_string(entry.cycles));
    row.set_attr("argc", std::to_string(entry.argc));
    row.set_attr("digest", hex_addr(entry.arg_digest));
  }

  xml::Node& heap_node = root.add_child("heap");
  if (!heap_note.empty()) heap_node.set_attr("note", heap_note);
  for (const ChunkState& chunk : heap) {
    xml::Node& row = heap_node.add_child("chunk");
    row.set_attr("header", hex_addr(chunk.header));
    row.set_attr("user", hex_addr(chunk.user));
    row.set_attr("size", std::to_string(chunk.size));
    row.set_attr("in_use", chunk.in_use ? "1" : "0");
    if (chunk.suspect) row.set_attr("suspect", "1");
  }

  xml::Node& regions_node = root.add_child("regions");
  for (const RegionState& region : regions) {
    xml::Node& row = regions_node.add_child("region");
    row.set_attr("base", hex_addr(region.base));
    row.set_attr("size", std::to_string(region.size));
    row.set_attr("perm", std::to_string(region.perm));
    row.set_attr("kind", region.kind);
    row.set_attr("label", region.label);
    if (region.suspect) row.set_attr("suspect", "1");
  }

  // Appended after <regions> so pre-repair documents (no <repairs> child)
  // still parse: absent means "no repairs applied".
  if (!repairs.empty()) {
    xml::Node& repairs_node = root.add_child("repairs");
    for (const RepairEvent& repair : repairs) {
      xml::Node& row = repairs_node.add_child("repair");
      row.set_attr("seq", std::to_string(repair.seq));
      row.set_attr("tick", std::to_string(repair.tick));
      row.set_attr("action", simlib::to_string(repair.action));
      row.set_attr("symbol", repair.symbol);
      row.set_attr("addr", hex_addr(repair.fault_addr));
      row.set_attr("requested", std::to_string(repair.requested));
      row.set_attr("granted", std::to_string(repair.granted));
      row.set_attr("detail", repair.detail);
    }
  }
  return root;
}

Result<Dossier> from_xml(const xml::Node& node) {
  if (node.name() != "dossier") return Error("dossier: root element is not <dossier>");
  Dossier out;
  out.process = attr_or_empty(node, "process");
  auto kind = detection_kind_from_name(attr_or_empty(node, "detector"));
  if (!kind.ok()) return kind.error();
  out.detector = kind.value();
  out.symbol = attr_or_empty(node, "symbol");
  if (Status read = read_numbers(node, {{"seq", &out.seq},
                                        {"tick", &out.tick},
                                        {"cycles", &out.cycles},
                                        {"fault_addr", &out.fault_addr}});
      !read.ok()) {
    return read.error();
  }
  if (const xml::Node* detail = node.child("detail")) out.detail = detail->text();

  if (const xml::Node* call = node.child("call")) {
    for (const xml::Node* arg : call->children_named("arg")) {
      out.args.push_back(attr_or_empty(*arg, "value"));
    }
  }

  if (const xml::Node* trace_node = node.child("trace")) {
    for (const xml::Node* row : trace_node->children_named("event")) {
      TraceEntry entry;
      entry.symbol = attr_or_empty(*row, "symbol");
      std::uint64_t argc = 0;
      if (Status read = read_numbers(*row, {{"seq", &entry.seq},
                                            {"tick", &entry.tick},
                                            {"cycles", &entry.cycles},
                                            {"argc", &argc},
                                            {"digest", &entry.arg_digest}});
          !read.ok()) {
        return read.error();
      }
      entry.argc = static_cast<std::uint32_t>(argc);
      out.trace.push_back(std::move(entry));
    }
  }

  if (const xml::Node* heap_node = node.child("heap")) {
    out.heap_note = attr_or_empty(*heap_node, "note");
    for (const xml::Node* row : heap_node->children_named("chunk")) {
      ChunkState chunk;
      if (Status read = read_numbers(
              *row, {{"header", &chunk.header}, {"user", &chunk.user}, {"size", &chunk.size}});
          !read.ok()) {
        return read.error();
      }
      chunk.in_use = row->attr_int("in_use", 0) != 0;
      chunk.suspect = row->attr_int("suspect", 0) != 0;
      out.heap.push_back(chunk);
    }
  }

  if (const xml::Node* regions_node = node.child("regions")) {
    for (const xml::Node* row : regions_node->children_named("region")) {
      RegionState region;
      std::uint64_t perm = 0;
      if (Status read = read_numbers(
              *row, {{"base", &region.base}, {"size", &region.size}, {"perm", &perm}});
          !read.ok()) {
        return read.error();
      }
      region.perm = static_cast<std::uint8_t>(perm);
      region.kind = attr_or_empty(*row, "kind");
      region.label = attr_or_empty(*row, "label");
      region.suspect = row->attr_int("suspect", 0) != 0;
      out.regions.push_back(std::move(region));
    }
  }

  if (const xml::Node* repairs_node = node.child("repairs")) {
    for (const xml::Node* row : repairs_node->children_named("repair")) {
      RepairEvent repair;
      auto action = repair_action_from_name(attr_or_empty(*row, "action"));
      if (!action.ok()) return action.error();
      repair.action = action.value();
      repair.symbol = attr_or_empty(*row, "symbol");
      repair.detail = attr_or_empty(*row, "detail");
      if (Status read = read_numbers(*row, {{"seq", &repair.seq},
                                            {"tick", &repair.tick},
                                            {"addr", &repair.fault_addr},
                                            {"requested", &repair.requested},
                                            {"granted", &repair.granted}});
          !read.ok()) {
        return read.error();
      }
      out.repairs.push_back(std::move(repair));
    }
  }
  return out;
}

std::string Dossier::to_text() const {
  std::string out;
  out += "=== crash dossier: " + simlib::to_string(detector) + " in " + symbol + " ===\n";
  out += "process:     " + process + "\n";
  out += "detail:      " + detail + "\n";
  out += "at:          seq " + std::to_string(seq) + ", tick " + std::to_string(tick) +
         ", cycle " + std::to_string(cycles) + "\n";
  if (fault_addr != 0) out += "implicated:  " + hex_addr(fault_addr) + "\n";
  if (!args.empty()) {
    out += "call:        " + symbol + "(";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      out += args[i];
    }
    out += ")\n";
  }
  if (!trace.empty()) {
    out += "last " + std::to_string(trace.size()) + " wrapped calls (oldest first):\n";
    for (const TraceEntry& entry : trace) {
      out += "  #" + std::to_string(entry.seq) + "  " + entry.symbol + "/" +
             std::to_string(entry.argc) + "  tick=" + std::to_string(entry.tick) +
             "  digest=" + hex_addr(entry.arg_digest) + "\n";
    }
  }
  if (!heap.empty() || !heap_note.empty()) {
    out += "heap neighborhood:\n";
    for (const ChunkState& chunk : heap) {
      out += "  chunk @" + hex_addr(chunk.header) + " user=" + hex_addr(chunk.user) +
             " size=" + std::to_string(chunk.size) + (chunk.in_use ? " in-use" : " free") +
             (chunk.suspect ? "   <-- corrupted allocation" : "") + "\n";
    }
    if (!heap_note.empty()) out += "  ! " + heap_note + "\n";
  }
  if (!regions.empty()) {
    out += "region map:\n";
    for (const RegionState& region : regions) {
      static constexpr const char* kPermNames[] = {"---", "r--", "-w-", "rw-"};
      out += "  " + hex_addr(region.base) + " +" + std::to_string(region.size) + "  " +
             kPermNames[region.perm & 3] + "  " + region.kind + "  " + region.label +
             (region.suspect ? "   <-- fault here" : "") + "\n";
    }
  }
  if (!repairs.empty()) {
    out += "repairs applied:\n";
    for (const RepairEvent& repair : repairs) {
      out += "  #" + std::to_string(repair.seq) + "  " + repair.symbol + "  " +
             simlib::to_string(repair.action) + "  " + hex_addr(repair.fault_addr) +
             "  requested=" + std::to_string(repair.requested) +
             " granted=" + std::to_string(repair.granted) + "  " + repair.detail + "\n";
    }
  }
  return out;
}

}  // namespace healers::incident
