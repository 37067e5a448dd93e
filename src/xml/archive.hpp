// The archive every HEALERS XML document is written and read through.
//
// A document that is both written and read back is described once, by an
// `xml_fields(Ar& ar, T& doc)` beside T (found by argument-dependent lookup)
// that visits it in document order. write() runs it with a Writer to build
// the Node tree; read() runs it with a Reader to fill a default T. Its words:
//
//   attr(key, v) / attr_if(write, key, v)   attribute; absent keeps v's default
//   required(key, v)                        attribute that must be present
//   attr_pair(a, b, optional_pair)          two attributes, both or neither
//   derived(key, make) / check(ok, key)     written only / read only
//   text(name, s) / text_if(write, ...)     <name>s</name>; absent keeps ""
//   child(name, visit) / child_if(...)      element; absent keeps defaults
//   required_child(name, visit)             element that must be present
//   each(name, items, visit)                one element per vector item or map
//                                           entry (a key read twice sums)
//
// Integers are decimal, read with std::from_chars into the field's own type:
// no '+', no space, no '-' on an unsigned field, nothing out of range. Bools
// are "1"/"0"; Hex{v} is 0x-hex (read back 0x-hex or decimal); Named{e, last}
// an enum's to_string() name, one of those up to `last`; Word{b, w} a bool
// written as `w`; an optional T goes by T's to_string() and T::parse(). Other
// attributes and elements are ignored.
#pragma once

#include <charconv>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::xml {

template <class T>
struct Hex {
  T& value;
};
template <class E>
struct Named {
  E& value;
  E last;
};
struct Word {
  bool& value;
  std::string_view word;
};

template <class V>
std::string format(const V& value) {
  if constexpr (std::is_same_v<V, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<V, bool>) {
    return value ? "1" : "0";
  } else if constexpr (std::is_integral_v<V>) {
    return std::to_string(value);
  } else if constexpr (requires { value.last; }) {
    return std::string(to_string(value.value));
  } else if constexpr (requires { value.word; }) {
    return std::string(value.word);
  } else if constexpr (requires { value.has_value(); }) {
    return value->to_string();
  } else {
    char digits[16];
    return "0x" + std::string(digits, std::to_chars(digits, digits + 16, value.value, 16).ptr);
  }
}

// The whole of `text` as a number of T's type.
template <class T>
bool parse_number(std::string_view text, T& out, int base = 10) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out, base);
  return ec == std::errc{} && end == text.data() + text.size();
}

template <class V>
bool parse(std::string_view text, V& out) {
  if constexpr (std::is_same_v<V, std::string>) {
    out.assign(text);
    return true;
  } else if constexpr (std::is_same_v<V, bool>) {
    out = text == "1";
    return out || text == "0";
  } else if constexpr (std::is_integral_v<V>) {
    return parse_number(text, out);
  } else if constexpr (requires { out.last; }) {
    using E = decltype(out.last);
    for (int i = 0; i <= static_cast<int>(out.last); ++i) {
      if (to_string(static_cast<E>(i)) != text) continue;
      out.value = static_cast<E>(i);
      return true;
    }
    return false;
  } else if constexpr (requires { out.word; }) {
    out.value = text == out.word;
    return out.value;
  } else if constexpr (requires { out.has_value(); }) {
    auto parsed = V::value_type::parse(text);
    if (parsed.ok()) out = std::move(parsed).take();
    return parsed.ok();
  } else if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return parse_number(text.substr(2), out.value, 16);
  } else {
    return parse_number(text, out.value);
  }
}

// A Writer (kReading false) adds each visited field to its Node. A Reader
// fills each visited field from its Node; its first error sticks and skips
// the rest.
template <bool kReading>
class Archive {
 public:
  using Element = std::conditional_t<kReading, const Node, Node>;

  Archive(Element& node, std::string_view doc, std::string& error) noexcept
      : node_(node), doc_(doc), error_(error) {}

  template <class V>
  void attr(std::string_view key, V&& value) {
    attr_if(true, key, value);
  }
  template <class V>
  void attr_if(bool write, std::string_view key, V&& value) {
    if constexpr (kReading) {
      const std::string* text = error_.empty() ? node_.attr(key) : nullptr;
      if (text == nullptr || parse(*text, value)) return;
      if constexpr (requires { value.last; }) {
        fail(std::string(doc_) + ": unknown " + std::string(key) + " '" + *text + "'");
      } else {
        fail(std::string(doc_) + ": malformed " + std::string(key));
      }
    } else if (write) {
      node_.set_attr(std::string(key), format(value));
    }
  }
  template <class V>
  void required(std::string_view key, V&& value) {
    if (kReading && node_.attr(key) == nullptr) {
      fail("<" + node_.name() + "> missing " + std::string(key));
    }
    attr(key, value);
  }
  template <class Pair>
  void attr_pair(std::string_view first, std::string_view second, std::optional<Pair>& pair) {
    if (kReading && node_.attr(first) != nullptr && node_.attr(second) != nullptr) pair.emplace();
    if (!pair) return;
    attr(first, pair->first);
    attr(second, pair->second);
  }
  template <class Make>
  void derived(std::string_view key, Make make) {
    if constexpr (!kReading) node_.set_attr(std::string(key), make());
  }
  void check(bool ok, std::string_view key) {
    if (kReading && !ok) fail(std::string(doc_) + ": malformed " + std::string(key));
  }

  void text(std::string_view name, std::string& text) { text_if(true, name, text); }
  void text_if(bool write, std::string_view name, std::string& text) {
    if constexpr (kReading) {
      if (const Node* found = node_.child(name)) text = found->text();
    } else if (write) {
      node_.add_text_child(std::string(name), text);
    }
  }
  template <class Visit>
  void child(std::string_view name, Visit visit) {
    child_if(true, name, visit);
  }
  template <class Visit>
  void child_if(bool write, std::string_view name, Visit visit) {
    if constexpr (kReading) {
      if (const Node* found = node_.child(name)) within(*found, visit);
    } else if (write) {
      within(node_.add_child(std::string(name)), visit);
    }
  }
  template <class Visit>
  void required_child(std::string_view name, Visit visit) {
    if (kReading && node_.child(name) == nullptr) {
      fail("<" + node_.name() + "> missing <" + std::string(name) + ">");
    }
    child(name, visit);
  }
  template <class T, class Visit>
  void each(std::string_view name, std::vector<T>& items, Visit visit) {
    if constexpr (kReading) {
      for (const auto& found : node_.children()) {
        if (found->name() != name) continue;
        within(*found, [&](Archive& ar) { visit(ar, items.emplace_back()); });
      }
    } else {
      for (T& item : items) child(name, [&](Archive& ar) { visit(ar, item); });
    }
  }
  template <class K, class V, class Visit>
  void each(std::string_view name, std::map<K, V>& items, Visit visit) {
    if constexpr (kReading) {
      for (const auto& found : node_.children()) {
        if (found->name() != name) continue;
        K key{};
        V value{};
        within(*found, [&](Archive& ar) { visit(ar, key, value); });
        if (error_.empty()) items[key] += value;
      }
    } else {
      for (auto& [key, value] : items) {
        child(name, [&, key = key](Archive& ar) mutable { visit(ar, key, value); });
      }
    }
  }

 private:
  template <class Visit>
  void within(Element& node, Visit visit) {
    Archive inner(node, doc_, error_);
    if (error_.empty()) visit(inner);
  }
  void fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
  }

  Element& node_;
  std::string_view doc_;
  std::string& error_;
};

using Writer = Archive<false>;
using Reader = Archive<true>;

// `doc` as a <root> element, through its xml_fields().
template <class T>
Node write(std::string_view root, const T& doc) {
  Node node{std::string(root)};
  std::string no_error;
  Writer writer(node, root, no_error);
  xml_fields(writer, const_cast<T&>(doc));  // a Writer never modifies what it visits
  return node;
}

// The strict inverse of write(); errors name the document after `root`.
template <class T>
Result<T> read(const Node& node, std::string_view root) {
  if (node.name() != root) return Error("expected <" + std::string(root) + ">");
  T doc{};
  std::string error;
  Reader reader(node, root, error);
  xml_fields(reader, doc);
  if (!error.empty()) return Error(error);
  return doc;
}

}  // namespace healers::xml
