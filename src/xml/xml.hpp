// Minimal self-describing XML infrastructure.
//
// HEALERS exchanges its documents as XML (paper §2.2, §2.3, §3.1, §3.3):
// library declaration files (§3.1); robust-API campaigns and repair policies
// derived by fault injection (§2.2); profiles, crash dossiers and surface
// profiles shipped to the central collector (§2.3, Fig 5); and derivation
// service requests and responses.
//
// The documents are self-describing: the collector extracts which functions
// were wrapped and what was collected purely from the document structure.
// This module provides an ordered element tree, a serializer, and a strict
// recursive-descent parser for the subset HEALERS emits (elements,
// attributes, character data, comments). Documents that are read back are
// described once each and written and read through xml/archive.hpp.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.hpp"

namespace healers::xml {

// One element. Attribute order and child order are preserved: documents are
// compared textually in tests and must round-trip byte-for-byte.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  Node& set_attr(std::string key, std::string value);
  [[nodiscard]] const std::string* attr(std::string_view key) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& attrs() const noexcept {
    return attrs_;
  }

  // Appends a child element and returns a reference to it (stable: children
  // are held by unique_ptr).
  Node& add_child(std::string name);
  Node& add_child(Node node);
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children() const noexcept {
    return children_;
  }
  // First child with the given element name, or nullptr.
  [[nodiscard]] const Node* child(std::string_view name) const noexcept;
  // All children with the given element name.
  [[nodiscard]] std::vector<const Node*> children_named(std::string_view name) const;

  Node& set_text(std::string text);
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

  // Convenience: add <name>text</name> child.
  Node& add_text_child(std::string name, std::string text);

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  std::string text_;
};

// Serializes with 2-space indentation and a standard declaration header.
[[nodiscard]] std::string serialize(const Node& root);
// Serializes without the <?xml ...?> header (for embedding).
[[nodiscard]] std::string serialize_fragment(const Node& root, int indent = 0);

// Escapes &, <, >, ", ' for use in character data / attribute values.
[[nodiscard]] std::string escape(std::string_view raw);

// Deepest element nesting parse() accepts. HEALERS documents nest at most
// four deep; the cap bounds the parser's recursion on hostile input.
inline constexpr int kMaxDepth = 64;

// Strict parser for the HEALERS subset. Rejects mismatched tags, unterminated
// documents, bad entities, and nesting beyond kMaxDepth with a
// position-annotated error.
[[nodiscard]] Result<Node> parse(std::string_view document);

}  // namespace healers::xml
