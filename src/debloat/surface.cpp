#include "debloat/surface.hpp"

#include <sstream>

#include "xml/archive.hpp"

namespace healers::debloat {

namespace {

int percent(double ratio) { return static_cast<int>(ratio * 100.0 + 0.5); }

}  // namespace

// The <surface-profile> document; its binary twin is fields() in
// fleet/wire.cpp.
template <class Ar>
void xml_fields(Ar& ar, SurfaceProfile& profile) {
  ar.attr("host", profile.host);
  ar.attr("executable", profile.executable);
  ar.required("exported", profile.exported);
  ar.required("reachable", profile.reachable);
  ar.required("touched", profile.touched);
  ar.required("trapped", profile.trapped);
  ar.required("resident_pages", profile.resident_pages);
  ar.required("total_pages", profile.total_pages);
  const auto symbols = [&ar](std::string_view name, std::vector<std::string>& list) {
    ar.required_child(name, [&list](auto& ar) {
      ar.each("symbol", list, [](auto& ar, std::string& symbol) { ar.required("name", symbol); });
    });
  };
  symbols("reachable", profile.reachable_symbols);
  symbols("touched", profile.touched_symbols);
  symbols("trapped", profile.trapped_symbols);
}

double SurfaceProfile::unmapped_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t mapped = touched < exported ? touched : exported;
  return static_cast<double>(exported - mapped) / static_cast<double>(exported);
}

double SurfaceProfile::bloat_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t reached = reachable < exported ? reachable : exported;
  return static_cast<double>(exported - reached) / static_cast<double>(exported);
}

double SurfaceProfile::resident_ratio() const noexcept {
  if (total_pages == 0) return 0.0;
  return static_cast<double>(resident_pages) / static_cast<double>(total_pages);
}

std::string SurfaceProfile::to_xml() const {
  return xml::serialize(xml::write("surface-profile", *this));
}

std::string SurfaceProfile::to_text() const {
  std::ostringstream out;
  out << "surface profile: " << executable << " on " << host << "\n";
  out << "  exported " << exported << ", reachable " << reachable << ", touched " << touched
      << ", trapped " << trapped << "\n";
  out << "  unmapped: " << percent(unmapped_ratio()) << "%  bloat (outside closure): "
      << percent(bloat_ratio()) << "%\n";
  out << "  text pages resident: " << resident_pages << "/" << total_pages << " ("
      << percent(resident_ratio()) << "%)\n";
  out << "  touched:";
  for (const std::string& symbol : touched_symbols) out << ' ' << symbol;
  out << "\n";
  if (!trapped_symbols.empty()) {
    out << "  TRAPPED (surface violations):";
    for (const std::string& symbol : trapped_symbols) out << ' ' << symbol;
    out << "\n";
  }
  return out.str();
}

Result<SurfaceProfile> surface_from_xml(std::string_view document) {
  auto parsed = xml::parse(document);
  if (!parsed.ok()) return parsed.error();
  return surface_from_xml(parsed.value());
}

Result<SurfaceProfile> surface_from_xml(const xml::Node& root) {
  return xml::read<SurfaceProfile>(root, "surface-profile");
}

SurfaceProfile capture_surface_profile(const linker::Process& proc,
                                       const ReachabilityReport& reach, std::string host) {
  SurfaceProfile profile;
  profile.host = std::move(host);
  profile.executable = proc.name();
  profile.exported = proc.surface().exported;
  profile.reachable = reach.reachable.size();
  profile.touched = proc.surface().mapped;
  profile.trapped = proc.surface().violations;
  profile.reachable_symbols = reach.reachable;
  profile.touched_symbols.assign(proc.touched_symbols().begin(), proc.touched_symbols().end());
  profile.trapped_symbols.assign(proc.trapped_symbols().begin(), proc.trapped_symbols().end());
  // One text page per export is what eager binding would map; the load
  // barrier mapped exactly one resident page per touched symbol.
  profile.total_pages = profile.exported;
  for (const mem::Region* region : proc.machine().mem().region_map()) {
    if (region->label.rfind("text:", 0) == 0) profile.resident_pages += region->resident_pages();
  }
  return profile;
}

}  // namespace healers::debloat
