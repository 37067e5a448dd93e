#include "xml/xml.hpp"

#include <cctype>
#include <sstream>

namespace healers::xml {

Node& Node::set_attr(std::string key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  attrs_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const std::string* Node::attr(std::string_view key) const noexcept {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Node& Node::add_child(std::string name) {
  children_.push_back(std::make_unique<Node>(std::move(name)));
  return *children_.back();
}

Node& Node::add_child(Node node) {
  children_.push_back(std::make_unique<Node>(std::move(node)));
  return *children_.back();
}

const Node* Node::child(std::string_view name) const noexcept {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const Node*> Node::children_named(std::string_view name) const {
  std::vector<const Node*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

Node& Node::set_text(std::string text) {
  text_ = std::move(text);
  return *this;
}

Node& Node::add_text_child(std::string name, std::string text) {
  Node& c = add_child(std::move(name));
  c.set_text(std::move(text));
  return c;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    switch (ch) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

namespace {

void serialize_into(const Node& node, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out += pad;
  out += '<';
  out += node.name();
  for (const auto& [k, v] : node.attrs()) {
    out += ' ';
    out += k;
    out += "=\"";
    out += escape(v);
    out += '"';
  }
  const bool empty = node.children().empty() && node.text().empty();
  if (empty) {
    out += "/>\n";
    return;
  }
  out += '>';
  if (node.children().empty()) {
    // Pure text element stays on one line: <name>text</name>
    out += escape(node.text());
    out += "</";
    out += node.name();
    out += ">\n";
    return;
  }
  out += '\n';
  if (!node.text().empty()) {
    out += std::string(static_cast<std::size_t>(indent + 1) * 2, ' ');
    out += escape(node.text());
    out += '\n';
  }
  for (const auto& child : node.children()) {
    serialize_into(*child, indent + 1, out);
  }
  out += pad;
  out += "</";
  out += node.name();
  out += ">\n";
}

class Parser {
 public:
  explicit Parser(std::string_view doc) : doc_(doc) {}

  Result<Node> run() {
    skip_prolog();
    auto root = parse_element(1);
    if (!root.ok()) return root;
    skip_ws_and_comments();
    if (pos_ != doc_.size()) {
      return Error(where() + ": trailing content after document element");
    }
    return root;
  }

 private:
  [[nodiscard]] bool eof() const noexcept { return pos_ >= doc_.size(); }
  [[nodiscard]] char peek() const noexcept { return eof() ? '\0' : doc_[pos_]; }
  char take() noexcept { return eof() ? '\0' : doc_[pos_++]; }

  [[nodiscard]] std::string where() const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < doc_.size(); ++i) {
      if (doc_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return "line " + std::to_string(line) + ":" + std::to_string(col);
  }

  void skip_ws() {
    while (!eof() && (std::isspace(static_cast<unsigned char>(peek())) != 0)) ++pos_;
  }

  bool skip_comment() {
    if (doc_.compare(pos_, 4, "<!--") != 0) return false;
    const std::size_t end = doc_.find("-->", pos_ + 4);
    pos_ = (end == std::string_view::npos) ? doc_.size() : end + 3;
    return true;
  }

  void skip_ws_and_comments() {
    for (;;) {
      skip_ws();
      if (!skip_comment()) return;
    }
  }

  void skip_prolog() {
    skip_ws();
    if (doc_.compare(pos_, 5, "<?xml") == 0) {
      const std::size_t end = doc_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? doc_.size() : end + 2;
    }
    skip_ws_and_comments();
  }

  static bool is_name_char(char ch) noexcept {
    return (std::isalnum(static_cast<unsigned char>(ch)) != 0) || ch == '_' || ch == '-' ||
           ch == '.' || ch == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name += take();
    return name;
  }

  Result<std::string> parse_entity() {
    // pos_ is at '&'
    const std::size_t semi = doc_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 6) {
      return Error(where() + ": unterminated entity");
    }
    const std::string_view entity = doc_.substr(pos_ + 1, semi - pos_ - 1);
    pos_ = semi + 1;
    if (entity == "amp") return std::string("&");
    if (entity == "lt") return std::string("<");
    if (entity == "gt") return std::string(">");
    if (entity == "quot") return std::string("\"");
    if (entity == "apos") return std::string("'");
    return Error(where() + ": unknown entity &" + std::string(entity) + ";");
  }

  Result<std::string> parse_attr_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') {
      return Error(where() + ": expected quoted attribute value");
    }
    std::string value;
    while (!eof() && peek() != quote) {
      if (peek() == '&') {
        auto ent = parse_entity();
        if (!ent.ok()) return ent;
        value += ent.value();
      } else {
        value += take();
      }
    }
    if (eof()) return Error(where() + ": unterminated attribute value");
    take();  // closing quote
    return value;
  }

  Result<Node> parse_element(int depth) {
    skip_ws_and_comments();
    if (peek() != '<') return Error(where() + ": expected '<'");
    if (depth > kMaxDepth) {
      return Error(where() + ": elements nested deeper than " + std::to_string(kMaxDepth));
    }
    take();
    const std::string name = parse_name();
    if (name.empty()) return Error(where() + ": expected element name");
    Node node(name);

    for (;;) {
      skip_ws();
      if (peek() == '/') {
        take();
        if (take() != '>') return Error(where() + ": expected '>' after '/'");
        return node;  // self-closing
      }
      if (peek() == '>') {
        take();
        break;
      }
      const std::string key = parse_name();
      if (key.empty()) return Error(where() + ": expected attribute name");
      skip_ws();
      if (take() != '=') return Error(where() + ": expected '=' after attribute name");
      skip_ws();
      auto value = parse_attr_value();
      if (!value.ok()) return value.error();
      node.set_attr(key, value.value());
    }

    // Content: interleaved text and child elements until the close tag.
    std::string text;
    for (;;) {
      if (eof()) return Error(where() + ": unterminated element <" + name + ">");
      if (peek() == '<') {
        if (doc_.compare(pos_, 4, "<!--") == 0) {
          skip_comment();
          continue;
        }
        if (doc_.compare(pos_, 2, "</") == 0) {
          pos_ += 2;
          const std::string close = parse_name();
          if (close != name) {
            return Error(where() + ": mismatched close tag </" + close + "> for <" + name + ">");
          }
          skip_ws();
          if (take() != '>') return Error(where() + ": expected '>' in close tag");
          node.set_text(trim(text));
          return node;
        }
        auto child = parse_element(depth + 1);
        if (!child.ok()) return child;
        node.add_child(std::move(child).take());
      } else if (peek() == '&') {
        auto ent = parse_entity();
        if (!ent.ok()) return ent.error();
        text += ent.value();
      } else {
        text += take();
      }
    }
  }

  static std::string trim(const std::string& raw) {
    std::size_t begin = 0;
    std::size_t end = raw.size();
    while (begin < end && (std::isspace(static_cast<unsigned char>(raw[begin])) != 0)) ++begin;
    while (end > begin && (std::isspace(static_cast<unsigned char>(raw[end - 1])) != 0)) --end;
    return raw.substr(begin, end - begin);
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serialize(const Node& root) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  serialize_into(root, 0, out);
  return out;
}

std::string serialize_fragment(const Node& root, int indent) {
  std::string out;
  serialize_into(root, indent, out);
  return out;
}

Result<Node> parse(std::string_view document) { return Parser(document).run(); }

}  // namespace healers::xml
