#include "incident/dossier.hpp"

#include "xml/archive.hpp"

namespace healers::incident {

std::string hex_addr(std::uint64_t value) { return xml::format(xml::Hex{value}); }

// The <dossier> document; its binary twin is fields() in fleet/wire.cpp.
template <class Ar>
void xml_fields(Ar& ar, Dossier& dossier) {
  ar.attr("process", dossier.process);
  ar.required("detector", xml::Named{dossier.detector, simlib::DetectionKind::kSurfaceViolation});
  ar.attr("symbol", dossier.symbol);
  ar.required("seq", dossier.seq);
  ar.required("tick", dossier.tick);
  ar.required("cycles", dossier.cycles);
  ar.required("fault_addr", xml::Hex{dossier.fault_addr});
  ar.text("detail", dossier.detail);
  ar.child("call", [&](auto& ar) {
    ar.each("arg", dossier.args, [](auto& ar, std::string& arg) { ar.attr("value", arg); });
  });
  ar.child("trace", [&](auto& ar) {
    ar.each("event", dossier.trace, [](auto& ar, TraceEntry& entry) {
      ar.required("seq", entry.seq);
      ar.attr("symbol", entry.symbol);
      ar.required("tick", entry.tick);
      ar.required("cycles", entry.cycles);
      ar.required("argc", entry.argc);
      ar.required("digest", xml::Hex{entry.arg_digest});
    });
  });
  ar.child("heap", [&](auto& ar) {
    ar.attr_if(!dossier.heap_note.empty(), "note", dossier.heap_note);
    ar.each("chunk", dossier.heap, [](auto& ar, ChunkState& chunk) {
      ar.required("header", xml::Hex{chunk.header});
      ar.required("user", xml::Hex{chunk.user});
      ar.required("size", chunk.size);
      ar.attr("in_use", chunk.in_use);
      ar.attr_if(chunk.suspect, "suspect", chunk.suspect);
    });
  });
  ar.child("regions", [&](auto& ar) {
    ar.each("region", dossier.regions, [](auto& ar, RegionState& region) {
      ar.required("base", xml::Hex{region.base});
      ar.required("size", region.size);
      ar.required("perm", region.perm);
      ar.attr("kind", region.kind);
      ar.attr("label", region.label);
      ar.attr_if(region.suspect, "suspect", region.suspect);
    });
  });
  // After <regions>, so a document from before repairs existed still reads:
  // absent means "no repairs applied".
  ar.child_if(!dossier.repairs.empty(), "repairs", [&](auto& ar) {
    ar.each("repair", dossier.repairs, [](auto& ar, RepairEvent& repair) {
      ar.required("seq", repair.seq);
      ar.required("tick", repair.tick);
      ar.required("action", xml::Named{repair.action, simlib::RepairAction::kSafeReturn});
      ar.attr("symbol", repair.symbol);
      ar.required("addr", xml::Hex{repair.fault_addr});
      ar.required("requested", repair.requested);
      ar.required("granted", repair.granted);
      ar.attr("detail", repair.detail);
    });
  });
}

xml::Node Dossier::to_xml() const { return xml::write("dossier", *this); }

Result<Dossier> from_xml(const xml::Node& node) {
  return xml::read<Dossier>(node, "dossier");
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
