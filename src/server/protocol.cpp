#include "server/protocol.hpp"

#include "fleet/wire.hpp"

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

xml::Node DeriveRequest::to_xml() const {
  xml::Node node("derive-request");
  node.set_attr("endpoint", std::string(to_string(endpoint)));
  node.set_attr("soname", soname);
  node.set_attr("seed", std::to_string(seed));
  node.set_attr("variants", std::to_string(variants));
  node.set_attr("budget", std::to_string(probe_step_budget));
  node.set_attr("heap", std::to_string(testbed_heap));
  node.set_attr("stack", std::to_string(testbed_stack));
  if (endpoint == Endpoint::kBundle) node.set_attr("bundle", std::string(to_string(bundle)));
  node.set_attr("format", format == WireFormat::kBinary ? "binary" : "xml");
  return node;
}

Result<DeriveRequest> DeriveRequest::from_xml(const xml::Node& node) {
  if (node.name() != "derive-request") return Error("expected <derive-request>");
  DeriveRequest request;
  const std::string* endpoint = node.attr("endpoint");
  if (endpoint == nullptr || *endpoint == "derive") {
    request.endpoint = Endpoint::kDerive;
  } else if (*endpoint == "bundle") {
    request.endpoint = Endpoint::kBundle;
  } else {
    return Error("<derive-request> unknown endpoint " + *endpoint);
  }
  const std::string* soname = node.attr("soname");
  if (soname == nullptr || soname->empty()) return Error("<derive-request> missing soname");
  request.soname = *soname;
  request.seed = static_cast<std::uint64_t>(node.attr_int("seed", 42));
  request.variants = static_cast<int>(node.attr_int("variants", 2));
  request.probe_step_budget = static_cast<std::uint64_t>(node.attr_int("budget", 2'000'000));
  request.testbed_heap = static_cast<std::uint64_t>(node.attr_int("heap", 256 << 10));
  request.testbed_stack = static_cast<std::uint64_t>(node.attr_int("stack", 64 << 10));
  if (const std::string* bundle = node.attr("bundle")) {
    if (*bundle == "robustness") {
      request.bundle = BundleKind::kRobustness;
    } else if (*bundle == "security") {
      request.bundle = BundleKind::kSecurity;
    } else if (*bundle == "profiling") {
      request.bundle = BundleKind::kProfiling;
    } else if (*bundle == "repair") {
      request.bundle = BundleKind::kRepair;
    } else {
      return Error("<derive-request> unknown bundle " + *bundle);
    }
  }
  if (const std::string* format = node.attr("format")) {
    if (*format == "xml") {
      request.format = WireFormat::kXml;
    } else if (*format == "binary") {
      request.format = WireFormat::kBinary;
    } else {
      return Error("<derive-request> unknown format " + *format);
    }
  }
  return request;
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

xml::Node DeriveResponse::to_xml() const {
  xml::Node node("derive-response");
  node.set_attr("status", std::string(to_string(status)));
  node.set_attr("probes", std::to_string(probes));
  if (!error.empty()) node.add_text_child("error", error);
  // NOTE: the XML parser trims character data, so an XML envelope normalizes
  // leading/trailing payload whitespace on decode. The binary envelope is
  // byte-exact; binary campaign payloads always travel in binary envelopes.
  if (!payload.empty()) node.add_text_child("payload", payload);
  return node;
}

Result<DeriveResponse> DeriveResponse::from_xml(const xml::Node& node) {
  if (node.name() != "derive-response") return Error("expected <derive-response>");
  DeriveResponse response;
  const std::string* status = node.attr("status");
  if (status == nullptr || *status == "ok") {
    response.status = ResponseStatus::kOk;
  } else if (*status == "error") {
    response.status = ResponseStatus::kError;
  } else if (*status == "shed") {
    response.status = ResponseStatus::kShed;
  } else {
    return Error("<derive-response> unknown status " + *status);
  }
  response.probes = static_cast<std::uint64_t>(node.attr_int("probes", 0));
  if (const xml::Node* error = node.child("error")) response.error = error->text();
  if (const xml::Node* payload = node.child("payload")) response.payload = payload->text();
  return response;
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
