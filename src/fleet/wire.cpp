#include "fleet/wire.hpp"

#include "xml/xml.hpp"

namespace healers::fleet {
namespace {

template <class Ar>
void fields(Ar& ar, profile::ProfileReport& report) {
  ar(report.process, report.wrapper);
  ar.each(report.functions, [](auto& ar, auto& fn) {
    ar(fn.symbol, fn.calls, fn.cycles, fn.contained, fn.errno_counts);
  });
  ar(report.global_errnos);
}

template <class Ar>
void fields(Ar& ar, incident::Dossier& dossier) {
  ar(dossier.process);
  ar.enumeration(dossier.detector, simlib::DetectionKind::kSurfaceViolation);
  ar(dossier.symbol, dossier.detail, dossier.seq, dossier.tick, dossier.cycles, dossier.fault_addr,
     dossier.args);
  ar.each(dossier.trace, [](auto& ar, auto& entry) {
    ar(entry.seq, entry.tick, entry.cycles, entry.arg_digest, entry.argc, entry.symbol);
  });
  ar(dossier.heap_note);
  ar.each(dossier.heap, [](auto& ar, auto& chunk) {
    ar(chunk.header, chunk.user, chunk.size);
    ar.flags(chunk.in_use, chunk.suspect);
  });
  ar.each(dossier.regions, [](auto& ar, auto& region) {
    ar(region.base, region.size, region.perm);
    ar.flags(region.suspect);
    ar(region.kind, region.label);
  });
  ar.each(dossier.repairs, [](auto& ar, auto& repair) {
    ar(repair.seq, repair.tick);
    ar.enumeration(repair.action, simlib::RepairAction::kSafeReturn);
    ar(repair.symbol, repair.detail, repair.fault_addr, repair.requested, repair.granted);
  });
}

template <class Ar>
void fields(Ar& ar, debloat::SurfaceProfile& profile) {
  ar(profile.host, profile.executable, profile.exported, profile.reachable, profile.touched,
     profile.trapped, profile.resident_pages, profile.total_pages, profile.reachable_symbols,
     profile.touched_symbols, profile.trapped_symbols);
}

template <class Ar>
void fields(Ar& ar, std::vector<std::string>& documents) {
  ar(documents);
}

constexpr auto kSchema = [](auto& ar, auto& doc) { fields(ar, doc); };

}  // namespace

std::string encode_binary(const profile::ProfileReport& report) {
  return codec::encode(kBinaryMagic, report, kSchema);
}

Result<profile::ProfileReport> decode_binary(std::string_view payload) {
  return codec::decode<profile::ProfileReport>(payload, kBinaryMagic, "binary document", kSchema);
}

Result<profile::ProfileReport> decode_document(std::string_view payload) {
  if (is_binary_document(payload)) return decode_binary(payload);
  auto parsed = xml::parse(payload);
  if (!parsed.ok()) return Error("xml document: " + parsed.error().message);
  return profile::from_xml(parsed.value());
}

bool is_binary_document(std::string_view payload) noexcept {
  return codec::has_magic(payload, kBinaryMagic);
}

std::string encode_dossier_binary(const incident::Dossier& dossier) {
  return codec::encode(kDossierMagic, dossier, kSchema);
}

Result<incident::Dossier> decode_dossier_binary(std::string_view payload) {
  return codec::decode<incident::Dossier>(payload, kDossierMagic, "binary dossier", kSchema);
}

Result<incident::Dossier> decode_dossier(std::string_view payload) {
  if (is_dossier_binary(payload)) return decode_dossier_binary(payload);
  auto parsed = xml::parse(payload);
  if (!parsed.ok()) return Error("xml dossier: " + parsed.error().message);
  return incident::from_xml(parsed.value());
}

bool is_dossier_binary(std::string_view payload) noexcept {
  return codec::has_magic(payload, kDossierMagic);
}

std::string encode_surface_binary(const debloat::SurfaceProfile& profile) {
  return codec::encode(kSurfaceMagic, profile, kSchema);
}

Result<debloat::SurfaceProfile> decode_surface_binary(std::string_view payload) {
  return codec::decode<debloat::SurfaceProfile>(payload, kSurfaceMagic, "binary surface profile",
                                                kSchema);
}

Result<debloat::SurfaceProfile> decode_surface(std::string_view payload) {
  if (is_surface_binary(payload)) return decode_surface_binary(payload);
  return debloat::surface_from_xml(payload);
}

bool is_surface_binary(std::string_view payload) noexcept {
  return codec::has_magic(payload, kSurfaceMagic);
}

std::string frame_stream(const std::vector<std::string>& documents) {
  return codec::encode(kStreamMagic, documents, kSchema);
}

Result<std::vector<std::string>> unframe_stream(std::string_view stream) {
  return codec::decode<std::vector<std::string>>(stream, kStreamMagic, "document stream", kSchema);
}

}  // namespace healers::fleet
