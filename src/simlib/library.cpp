#include "simlib/library.hpp"

#include <stdexcept>

namespace healers::simlib {

void SharedLibrary::add(Symbol symbol) {
  if (symbols_.contains(symbol.name)) {
    throw std::invalid_argument("SharedLibrary::add: duplicate symbol " + symbol.name);
  }
  symbols_.emplace(symbol.name, std::move(symbol));
  if (pages_->parsed) pages_ = std::make_unique<PageTable>();
}

const Result<parser::ManPage>& SharedLibrary::page(const std::string& name) const {
  std::call_once(pages_->once, [this] {
    for (const auto& [symbol_name, symbol] : symbols_) {
      pages_->pages.emplace(symbol_name, parser::parse_manpage(symbol.manpage));
    }
    pages_->parsed = true;
  });
  return pages_->pages.at(name);
}

const Symbol* SharedLibrary::find(const std::string& name) const noexcept {
  auto it = symbols_.find(name);
  return it == symbols_.end() ? nullptr : &it->second;
}

std::vector<std::string> SharedLibrary::names() const {
  std::vector<std::string> out;
  out.reserve(symbols_.size());
  for (const auto& [name, _] : symbols_) out.push_back(name);
  return out;
}

std::uint64_t SharedLibrary::fingerprint() const noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto fold = [&hash](const std::string& text) {
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    hash ^= 0xff;  // field separator: "ab"+"c" and "a"+"bc" hash differently
    hash *= 1099511628211ULL;
  };
  fold(soname_);
  fold(version_);
  for (const auto& [name, symbol] : symbols_) {
    fold(name);
    fold(symbol.declaration);
    fold(symbol.manpage);
  }
  return hash;
}

std::string SharedLibrary::header_text() const {
  std::string out = "/* " + soname_ + " " + version_ + " */\n";
  for (const auto& [_, symbol] : symbols_) {
    out += symbol.declaration;
    out += '\n';
  }
  return out;
}

}  // namespace healers::simlib
