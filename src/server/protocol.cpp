#include "server/protocol.hpp"

#include "fleet/wire.hpp"
#include "xml/archive.hpp"

namespace healers::server {
namespace {

template <class Ar>
void fields(Ar& ar, DeriveRequest& request) {
  ar.enumeration(request.endpoint, Endpoint::kBundle);
  ar(request.soname, request.seed, request.variants, request.probe_step_budget,
     request.testbed_heap, request.testbed_stack);
  ar.enumeration(request.bundle, BundleKind::kRepair);
  ar.enumeration(request.format, WireFormat::kBinary);
}

// The status leads the response so it can be read without the rest
// (binary_response_status).
template <class Ar>
void status_field(Ar& ar, ResponseStatus& status) {
  ar.enumeration(status, ResponseStatus::kShed);
}

template <class Ar>
void fields(Ar& ar, DeriveResponse& response) {
  status_field(ar, response.status);
  ar(response.probes, response.error, response.payload);
}

constexpr auto kSchema = [](auto& ar, auto& doc) { fields(ar, doc); };

}  // namespace

// The XML twins: <derive-request> and <derive-response>. Their attribute
// order is not the binary field order, and a derive request writes its
// bundle kind only when it has one.
template <class Ar>
void xml_fields(Ar& ar, DeriveRequest& request) {
  ar.attr("endpoint", xml::Named{request.endpoint, Endpoint::kBundle});
  ar.required("soname", request.soname);
  ar.check(!request.soname.empty(), "soname");
  ar.attr("seed", request.seed);
  ar.attr("variants", request.variants);
  ar.attr("budget", request.probe_step_budget);
  ar.attr("heap", request.testbed_heap);
  ar.attr("stack", request.testbed_stack);
  ar.attr_if(request.endpoint == Endpoint::kBundle, "bundle",
             xml::Named{request.bundle, BundleKind::kRepair});
  ar.attr("format", xml::Named{request.format, WireFormat::kBinary});
}

template <class Ar>
void xml_fields(Ar& ar, DeriveResponse& response) {
  ar.attr("status", xml::Named{response.status, ResponseStatus::kShed});
  ar.attr("probes", response.probes);
  ar.text_if(!response.error.empty(), "error", response.error);
  // NOTE: the XML parser trims character data, so an XML envelope normalizes
  // leading/trailing payload whitespace on decode. The binary envelope is
  // byte-exact; binary campaign payloads always travel in binary envelopes.
  ar.text_if(!response.payload.empty(), "payload", response.payload);
}

std::string_view to_string(Endpoint endpoint) noexcept {
  return endpoint == Endpoint::kDerive ? "derive" : "bundle";
}

std::string_view to_string(BundleKind kind) noexcept {
  switch (kind) {
    case BundleKind::kRobustness: return "robustness";
    case BundleKind::kSecurity: return "security";
    case BundleKind::kProfiling: return "profiling";
    case BundleKind::kRepair: return "repair";
  }
  return "?";
}

std::string_view to_string(WireFormat format) noexcept {
  return format == WireFormat::kXml ? "xml" : "binary";
}

std::string_view to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kShed: return "shed";
  }
  return "?";
}

injector::InjectorConfig DeriveRequest::injector_config() const {
  injector::InjectorConfig config;
  config.seed = seed;
  config.variants = variants;
  config.probe_step_budget = probe_step_budget;
  config.testbed_heap = testbed_heap;
  config.testbed_stack = testbed_stack;
  return config;
}

std::string DeriveRequest::canonical_key() const {
  // The binary encoding already is a canonical, unambiguous image of every
  // result-affecting field, so it doubles as the single-flight key. Only
  // bundle requests have a bundle kind: a derive request keys as kRobustness
  // whatever the field holds.
  if (endpoint != Endpoint::kBundle && bundle != BundleKind::kRobustness) {
    DeriveRequest canonical = *this;
    canonical.bundle = BundleKind::kRobustness;
    return canonical.canonical_key();
  }
  return fleet::codec::encode("", *this, kSchema);
}

xml::Node DeriveRequest::to_xml() const { return xml::write("derive-request", *this); }

Result<DeriveRequest> DeriveRequest::from_xml(const xml::Node& node) {
  return xml::read<DeriveRequest>(node, "derive-request");
}

std::string DeriveRequest::encode() const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return std::string(kRequestMagic) + canonical_key();
}

Result<DeriveRequest> DeriveRequest::decode(std::string_view payload) {
  if (!fleet::codec::has_magic(payload, kRequestMagic)) {
    auto parsed = xml::parse(payload);
    if (!parsed.ok()) return Error("xml request: " + parsed.error().message);
    return from_xml(parsed.value());
  }
  auto request = fleet::codec::decode<DeriveRequest>(payload, kRequestMagic, "binary request",
                                                     kSchema);
  if (request.ok() && request.value().soname.empty()) {
    return Error("binary request: missing soname");
  }
  return request;
}

xml::Node DeriveResponse::to_xml() const { return xml::write("derive-response", *this); }

Result<DeriveResponse> DeriveResponse::from_xml(const xml::Node& node) {
  return xml::read<DeriveResponse>(node, "derive-response");
}

std::string DeriveResponse::encode(WireFormat format) const {
  if (format == WireFormat::kXml) return xml::serialize(to_xml());
  return fleet::codec::encode(kResponseMagic, *this, kSchema);
}

Result<DeriveResponse> DeriveResponse::decode(std::string_view payload) {
  if (!fleet::codec::has_magic(payload, kResponseMagic)) {
    auto parsed = xml::parse(payload);
    if (!parsed.ok()) return Error("xml response: " + parsed.error().message);
    return from_xml(parsed.value());
  }
  return fleet::codec::decode<DeriveResponse>(payload, kResponseMagic, "binary response",
                                              kSchema);
}

std::optional<ResponseStatus> binary_response_status(std::string_view payload) {
  if (!fleet::codec::has_magic(payload, kResponseMagic)) return std::nullopt;
  fleet::codec::Reader reader(payload.substr(kResponseMagic.size()));
  ResponseStatus status = ResponseStatus::kOk;
  status_field(reader, status);
  if (!reader.ok()) return std::nullopt;
  return status;
}

}  // namespace healers::server
