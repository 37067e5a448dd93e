// Fleet wire formats (ROADMAP: "heavy traffic from millions of users").
//
// The paper ships profile documents as self-describing XML (§2.3). At fleet
// scale the XML round-trip dominates ingest cost, so producers may instead
// emit a compact binary encoding of the SAME ProfileReport ("HFB1"). Crash
// dossiers ("HDB1") and surface profiles ("HSP1") travel the same pipe, and
// a document stream ("HFDS1\n") batches any of them for disk or the wire.
//
// Every binary document is described once, by a `fields()` function next to
// its public codec (wire.cpp here; server/{codec,protocol,spec_cache}.cpp
// for the derivation service). The encoder and the decoder are both derived
// from that description through the two archives below, so a layout lives
// in exactly one place. Decoders are strict: a truncated payload, trailing
// bytes, an out-of-range enumerator or a count the remaining bytes cannot
// hold is an error Result, never a partial document. decode_document()
// accepts either encoding (binary by magic, XML otherwise) so a collector
// can serve a mixed fleet during a rollout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "debloat/surface.hpp"
#include "incident/dossier.hpp"
#include "profile/report.hpp"
#include "support/result.hpp"

namespace healers::fleet {

// The two archives every HEALERS binary format is built from. A schema is
// a `template <class Ar> void fields(Ar& ar, T& doc)` that visits the
// document's fields in wire order; running it with a Writer encodes, with a
// Reader decodes. The wire vocabulary is fixed by field type:
//
//   64-bit integers          8 bytes little-endian (i64 as two's complement)
//   narrower integers        4 bytes little-endian (u8 zero-extended, i32 as
//                            two's complement; a u8 reads the low byte)
//   std::string              u32 length + bytes
//   vector / map             u32 count + elements (maps sum duplicate keys,
//                            the way the counters they hold combine)
//   enumeration(e, last)     u32, rejected above `last`
//   flags(b0, b1, ...)       u32 word, bit i = field i (a bool, or an
//                            optional's presence, its value following the
//                            word); unknown bits are ignored
//   each(v, visit)           u32 count + visit(ar, element) per element
//   expect(n)                u32 that must equal n
//   document(v, enc, dec)    a nested document as a length-prefixed blob
namespace codec {

// True when `payload` starts with `magic`.
inline bool has_magic(std::string_view payload, std::string_view magic) noexcept {
  return payload.substr(0, magic.size()) == magic;
}

// The schema of a sequence element or map entry without one of its own.
inline constexpr auto kWhole = [](auto& ar, auto& field) { ar(field); };

// Appends each visited field's wire image to `out`.
class Writer {
 public:
  explicit Writer(std::string& out) noexcept : out_(out) {}

  template <class... Fields>
  void operator()(const Fields&... fields) {
    (put(fields), ...);
  }

  template <class E>
  void enumeration(E value, E /*last*/) {
    put(static_cast<std::uint32_t>(value));
  }

  template <class... Bits>
  void flags(const Bits&... bits) {
    std::uint32_t word = 0;
    unsigned bit = 0;
    ((word |= static_cast<std::uint32_t>(static_cast<bool>(bits)) << bit++), ...);
    put(word);
    const auto put_value = [this](const auto& field) {
      if constexpr (!std::is_same_v<std::decay_t<decltype(field)>, bool>) {
        if (field) put(*field);
      }
    };
    (put_value(bits), ...);
  }

  template <class T, class Visit>
  void each(std::vector<T>& items, Visit visit) {
    put(static_cast<std::uint32_t>(items.size()));
    for (T& item : items) visit(*this, item);
  }

  void expect(std::uint32_t value) { put(value); }

  template <class T, class Encode, class Decode>
  void document(const T& value, Encode encode, Decode /*decode*/) {
    put(std::string_view(encode(value)));
  }

 private:
  template <class T>
  void put(const T& value) {
    if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      put_le(static_cast<std::uint64_t>(value), 8);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(!std::is_same_v<T, bool>, "bools travel in flags()");
      put_le(static_cast<std::uint32_t>(value), 4);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      const std::string_view text(value);
      put(static_cast<std::uint32_t>(text.size()));
      out_.append(text);
    } else if constexpr (requires { value.size(); }) {
      put(static_cast<std::uint32_t>(value.size()));
      for (const auto& item : value) put(item);
    } else {
      put(value.first);
      put(value.second);
    }
  }

  void put_le(std::uint64_t value, int width) {
    char bytes[8];
    for (int i = 0; i < width; ++i) bytes[i] = static_cast<char>((value >> (8 * i)) & 0xffU);
    out_.append(bytes, static_cast<std::size_t>(width));
  }

  std::string& out_;
};

// The smallest wire image of one element: a default T has every string,
// sequence and optional empty. Measured once per element schema.
template <class T, class Visit>
std::size_t min_encoded_size(Visit visit) {
  static const std::size_t size = [&visit] {
    std::string out;
    Writer writer(out);
    T value{};
    visit(writer, value);
    return out.size();
  }();
  return size;
}

// Strict bounds-checked reader. The first failure sticks: later reads yield
// zeros and do not advance, and callers check ok() once at the end. A count
// larger than the remaining bytes could hold at the element's minimum size
// fails before anything is reserved, so no claim in the payload can make
// the decoder allocate more than the payload justifies.
class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  void fail(std::string_view why) {
    if (!ok_) return;
    ok_ = false;
    error_ = why;
  }

  template <class... Fields>
  void operator()(Fields&... fields) {
    (get(fields), ...);
  }

  template <class E>
  void enumeration(E& value, E last) {
    const std::uint32_t raw = u32();
    if (ok_ && raw > static_cast<std::uint32_t>(last)) fail("enumerator out of range");
    if (ok_) value = static_cast<E>(raw);
  }

  template <class... Bits>
  void flags(Bits&... bits) {
    const std::uint32_t word = u32();
    unsigned bit = 0;
    const auto set = [&](auto& field) {
      const bool on = ((word >> bit++) & 1U) != 0;
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
        field = on;
      } else {
        field.reset();
        if (on) get(field.emplace());
      }
    };
    (set(bits), ...);
  }

  template <class T, class Visit>
  void each(std::vector<T>& items, Visit visit) {
    const std::uint32_t n = count(min_encoded_size<T>(visit));
    items.clear();
    items.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) visit(*this, items.emplace_back());
  }

  void expect(std::uint32_t value) {
    if (u32() != value && ok_) fail("count mismatch");
  }

  template <class T, class Encode, class Decode>
  void document(T& value, Encode /*encode*/, Decode decode) {
    const std::string_view blob = bytes();
    if (!ok_) return;
    auto decoded = decode(blob);
    if (!decoded.ok()) return fail(decoded.error().message);
    value = std::move(decoded).take();
  }

 private:
  template <class T>
  void get(T& value) {
    if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      value = static_cast<T>(u64());
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(!std::is_same_v<T, bool>, "bools travel in flags()");
      value = static_cast<T>(u32());
    } else if constexpr (std::is_same_v<T, std::string>) {
      value.assign(bytes());
    } else if constexpr (requires { typename T::mapped_type; }) {
      std::pair<typename T::key_type, typename T::mapped_type> entry{};
      const std::uint32_t n = count(min_encoded_size<decltype(entry)>(kWhole));
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        get(entry);
        if (ok_) value[entry.first] += entry.second;
      }
    } else if constexpr (requires { value.emplace_back(); }) {
      each(value, kWhole);
    } else {
      get(value.first);
      get(value.second);
    }
  }

  std::uint32_t count(std::size_t min_size) {
    const std::uint32_t n = u32();
    // n * min_size cannot overflow: n < 2^32 and min_size is a few bytes.
    if (ok_ && n * min_size > data_.size() - pos_) fail("count exceeds the bytes left");
    return ok_ ? n : 0;
  }

  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }

  std::uint64_t le(std::size_t width) {
    if (!take(width)) return 0;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < width; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ - width + i]))
               << (8 * i);
    }
    return value;
  }

  std::string_view bytes() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return data_.substr(pos_ - len, len);
  }

  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      fail("truncated");
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// magic + fields(value), through `schema(Writer&, T&)`.
template <class T, class Schema>
std::string encode(std::string_view magic, const T& value, Schema schema) {
  std::string out(magic);
  Writer writer(out);
  schema(writer, const_cast<T&>(value));  // a Writer never modifies what it visits
  return out;
}

// The strict inverse of encode(); errors name the document as `what`.
template <class T, class Schema>
Result<T> decode(std::string_view payload, std::string_view magic, std::string_view what,
                 Schema schema) {
  if (!has_magic(payload, magic)) return Error(std::string(what) + ": bad magic");
  Reader reader(payload.substr(magic.size()));
  T value{};
  schema(reader, value);
  if (reader.ok() && !reader.at_end()) reader.fail("trailing bytes");
  if (!reader.ok()) return Error(std::string(what) + ": " + reader.error());
  return value;
}

}  // namespace codec

// Magic prefix of a binary profile document; layout: fields(Ar&,
// profile::ProfileReport&) in wire.cpp.
inline constexpr std::string_view kBinaryMagic = "HFB1";
// Magic prefix of a binary crash-dossier document; layout: fields(Ar&,
// incident::Dossier&) in wire.cpp.
inline constexpr std::string_view kDossierMagic = "HDB1";
// Magic prefix of a binary surface-profile document (docs/debloat.md);
// layout: fields(Ar&, debloat::SurfaceProfile&) in wire.cpp.
inline constexpr std::string_view kSurfaceMagic = "HSP1";
// Header of a framed document stream: a count and u32-length-prefixed
// payloads, each one XML or binary document; layout: fields(Ar&,
// std::vector<std::string>&) in wire.cpp.
inline constexpr std::string_view kStreamMagic = "HFDS1\n";

// Report -> compact binary document.
[[nodiscard]] std::string encode_binary(const profile::ProfileReport& report);

// Strict binary decoder (payload must start with kBinaryMagic).
[[nodiscard]] Result<profile::ProfileReport> decode_binary(std::string_view payload);

// Format-sniffing decoder: binary by magic, otherwise parsed as XML.
[[nodiscard]] Result<profile::ProfileReport> decode_document(std::string_view payload);

// True when the payload carries the binary magic.
[[nodiscard]] bool is_binary_document(std::string_view payload) noexcept;

// Dossier -> compact binary document (deterministic: identical dossiers
// encode byte-identically).
[[nodiscard]] std::string encode_dossier_binary(const incident::Dossier& dossier);

// Strict binary dossier decoder (payload must start with kDossierMagic).
[[nodiscard]] Result<incident::Dossier> decode_dossier_binary(std::string_view payload);

// Format-sniffing dossier decoder: binary by magic, otherwise parsed as a
// <dossier> XML document.
[[nodiscard]] Result<incident::Dossier> decode_dossier(std::string_view payload);

// True when the payload carries the binary dossier magic.
[[nodiscard]] bool is_dossier_binary(std::string_view payload) noexcept;

// Surface profile -> compact binary document (deterministic).
[[nodiscard]] std::string encode_surface_binary(const debloat::SurfaceProfile& profile);

// Strict binary surface-profile decoder (payload must start with
// kSurfaceMagic).
[[nodiscard]] Result<debloat::SurfaceProfile> decode_surface_binary(std::string_view payload);

// Format-sniffing surface-profile decoder: binary by magic, otherwise
// parsed as a <surface-profile> XML document.
[[nodiscard]] Result<debloat::SurfaceProfile> decode_surface(std::string_view payload);

// True when the payload carries the binary surface-profile magic.
[[nodiscard]] bool is_surface_binary(std::string_view payload) noexcept;

// Batch framing: documents -> one stream blob, and back.
[[nodiscard]] std::string frame_stream(const std::vector<std::string>& documents);
[[nodiscard]] Result<std::vector<std::string>> unframe_stream(std::string_view stream);

}  // namespace healers::fleet
