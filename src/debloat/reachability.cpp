#include "debloat/reachability.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>

namespace healers::debloat {

namespace {

// Resolves `symbol` against the executable's needed libraries in DT_NEEDED
// order, exactly like the loader's search: the library that defines it, or
// nullptr when none does.
const simlib::SharedLibrary* resolve_in_needed(const std::string& symbol,
                                               const std::vector<std::string>& needed,
                                               const linker::LibraryCatalog& catalog) {
  for (const std::string& soname : needed) {
    const simlib::SharedLibrary* lib = catalog.find(soname);
    if (lib != nullptr && lib->defines(symbol)) return lib;
  }
  return nullptr;
}

}  // namespace

double ReachabilityReport::unmapped_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t reached = std::min<std::uint64_t>(reachable.size(), exported);
  return static_cast<double>(exported - reached) / static_cast<double>(exported);
}

std::string ReachabilityReport::to_text() const {
  std::ostringstream out;
  out << "surface reachability for " << executable << "\n";
  out << "  exported symbols: " << exported << "\n";
  out << "  reachable (static closure): " << reachable.size() << "\n";
  out << "  unmapped under demand loading: " << (exported - std::min<std::uint64_t>(
                                                    reachable.size(), exported))
      << " (" << static_cast<int>(unmapped_ratio() * 100.0 + 0.5) << "%)\n";
  out << "  reachable symbols:";
  for (const std::string& symbol : reachable) out << ' ' << symbol;
  out << "\n";
  if (!unresolved.empty()) {
    out << "  UNRESOLVED roots:";
    for (const std::string& symbol : unresolved) out << ' ' << symbol;
    out << "\n";
  }
  if (!edges.empty()) {
    out << "  call edges walked:\n";
    for (const auto& [caller, callee] : edges) {
      out << "    " << caller << " -> " << callee << "\n";
    }
  }
  return out.str();
}

ReachabilityReport compute_reachability(const linker::Executable& exe,
                                        const linker::LibraryCatalog& catalog) {
  ReachabilityReport report;
  report.executable = exe.name;
  for (const std::string& soname : exe.needed) {
    if (const simlib::SharedLibrary* lib = catalog.find(soname)) {
      report.exported += lib->names().size();
    }
  }

  std::set<std::string> reachable;
  std::set<std::pair<std::string, std::string>> edges;
  std::deque<std::string> worklist;
  for (const std::string& root : exe.undefined) {
    if (resolve_in_needed(root, exe.needed, catalog) == nullptr) {
      report.unresolved.push_back(root);
      continue;
    }
    if (reachable.insert(root).second) worklist.push_back(root);
  }
  std::sort(report.unresolved.begin(), report.unresolved.end());

  while (!worklist.empty()) {
    const std::string caller = std::move(worklist.front());
    worklist.pop_front();
    const simlib::SharedLibrary* lib = resolve_in_needed(caller, exe.needed, catalog);
    if (lib == nullptr) continue;
    const Result<parser::ManPage>& page = lib->page(caller);
    if (!page.ok()) continue;  // no edges from an unparseable page
    for (const std::string& callee : page.value().calls) {
      if (resolve_in_needed(callee, exe.needed, catalog) == nullptr) continue;
      edges.emplace(caller, callee);
      if (reachable.insert(callee).second) worklist.push_back(callee);
    }
  }

  report.reachable.assign(reachable.begin(), reachable.end());
  report.edges.assign(edges.begin(), edges.end());
  return report;
}

void refine_with_trace(ReachabilityReport& report, const std::vector<std::string>& trace) {
  std::set<std::string> reachable(report.reachable.begin(), report.reachable.end());
  for (const std::string& symbol : trace) reachable.insert(symbol);
  report.reachable.assign(reachable.begin(), reachable.end());
}

std::unique_ptr<linker::Process> spawn_debloated(const linker::Executable& exe,
                                                 const linker::LibraryCatalog& catalog,
                                                 const ReachabilityReport& profile,
                                                 std::vector<linker::InterpositionPtr> preloads,
                                                 mem::MachineConfig config) {
  auto process = std::make_unique<linker::Process>(exe.name, config);
  process->enable_demand_loading(profile.reachable);
  for (const std::string& soname : exe.needed) {
    const simlib::SharedLibrary* lib = catalog.find(soname);
    if (lib == nullptr) {
      throw std::runtime_error("spawn: missing library " + soname + " for " + exe.name);
    }
    process->load_library(lib);
  }
  for (linker::InterpositionPtr& wrapper : preloads) {
    process->preload(std::move(wrapper));
  }
  return process;
}

}  // namespace healers::debloat
