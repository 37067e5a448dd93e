// Simulated shared libraries.
//
// A SharedLibrary packages callable symbols together with the two textual
// artifacts the HEALERS pipeline consumes (paper §2.2, Fig 2):
//   * the C declaration of each function (the "header file"), and
//   * a man-page document per function (NAME/SYNOPSIS/NOTES), whose NOTES
//     section carries the machine-readable semantic annotations that stand
//     in for the paper's "some manual editing may be needed" step.
//
// The toolkit never reads prototypes out of band: it parses header_text()
// and manpages with src/parser, exactly as the paper's tool parsed glibc's
// headers and man pages. The parsed man pages live here, in one table per
// library (page()), shared by every campaign, wrapper build, repair policy
// and reachability walk over the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "parser/manpage.hpp"
#include "simlib/value.hpp"
#include "support/result.hpp"

namespace healers::simlib {

struct Symbol {
  std::string name;
  CFunction fn;
  std::string declaration;  // e.g. "char *strcpy(char *dest, const char *src);"
  std::string manpage;      // NAME/SYNOPSIS/NOTES document
};

class SharedLibrary {
 public:
  SharedLibrary(std::string soname, std::string version)
      : soname_(std::move(soname)), version_(std::move(version)) {}

  // Registers a symbol; throws std::invalid_argument on duplicates. Resets
  // the parsed-page table, so the next page() call sees the new symbol.
  void add(Symbol symbol);

  [[nodiscard]] const std::string& soname() const noexcept { return soname_; }
  [[nodiscard]] const std::string& version() const noexcept { return version_; }

  [[nodiscard]] const Symbol* find(const std::string& name) const noexcept;
  [[nodiscard]] bool defines(const std::string& name) const noexcept {
    return find(name) != nullptr;
  }
  // Symbol names in deterministic (sorted) order — the toolkit's "list all
  // functions defined in the library" (demo §3.1).
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return symbols_.size(); }

  // Concatenated declarations, parseable as a C header by src/parser.
  [[nodiscard]] std::string header_text() const;

  // Content fingerprint (FNV-1a over soname, version, and every symbol's
  // name, declaration and man page). Campaign results are a pure function
  // of the library content it hashes — the toolkit keys its derive cache on
  // it so an updated library never serves stale specs.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  // The parsed man page of a defined symbol (throws std::out_of_range for an
  // undefined one). The first call parses every page of the library, once
  // (std::call_once), so concurrent callers are safe; the table is immutable
  // until the next add(), and references into it stay valid until then.
  [[nodiscard]] const Result<parser::ManPage>& page(const std::string& name) const;

 private:
  struct PageTable {
    std::once_flag once;
    bool parsed = false;  // set inside the call_once; add() reads it
    std::map<std::string, Result<parser::ManPage>> pages;
  };

  std::string soname_;
  std::string version_;
  std::map<std::string, Symbol> symbols_;
  std::unique_ptr<PageTable> pages_ = std::make_unique<PageTable>();
};

// Builders for the stock simulated libraries (see each funcs_*.cpp):
//   libsimc.so.1  — strings, memory, conversion, ctype, misc (45+ functions)
//   libsimio.so.1 — stdio subset over the in-memory filesystem
//   libsimm.so.1  — math subset (robust by construction: a contrast library)
[[nodiscard]] SharedLibrary build_libsimc();
[[nodiscard]] SharedLibrary build_libsimio();
[[nodiscard]] SharedLibrary build_libsimm();

}  // namespace healers::simlib
