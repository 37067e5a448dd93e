// The derivation service's request/response protocol.
//
// Clients ask the service for the two artifacts HEALERS derives per library:
//
//   * kDerive  — the robust API (a full injector::CampaignResult), shipped
//                as campaign XML or the compact "HCB1" binary document;
//   * kBundle  — a wrapper policy bundle: the generated C wrapper source
//                (Fig 3) for one wrapper type. Robustness bundles derive the
//                campaign first (server-side, memoized) — the client never
//                has to ship a spec file back.
//
// Requests and responses both exist in XML and binary wire forms, sniffed
// by magic exactly like the fleet document formats, so a mixed client
// population can talk to one server during a rollout. One format field
// controls BOTH the envelope and the campaign payload encoding — binary
// payloads never ride inside XML character data.
//
// The binary request ("HRQ1") and response ("HRS1") layouts are fields(Ar&,
// DeriveRequest&) and fields(Ar&, DeriveResponse&) in protocol.cpp.
//
// Everything in a response is a pure function of the request and the
// library content: byte-identical across worker counts, queue shapes, and
// (for cache hits) across server restarts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "injector/injector.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::server {

inline constexpr std::string_view kRequestMagic = "HRQ1";
inline constexpr std::string_view kResponseMagic = "HRS1";

enum class Endpoint : std::uint8_t {
  kDerive = 0,  // robust-API derivation -> campaign document
  kBundle = 1,  // wrapper policy bundle -> generated C source
};

// Which wrapper policy a kBundle request wants (mirrors `healers
// gen-source --type`).
enum class BundleKind : std::uint8_t {
  kRobustness = 0,  // argument checks from the derived robust API
  kSecurity = 1,    // heap canaries + stack guards
  kProfiling = 2,   // Fig 3 call counting / timing / errno profiling
  kRepair = 3,      // campaign-derived repair policy (truncate / substitute)
};

// Wire encoding of the envelope AND of a derive response's campaign payload.
enum class WireFormat : std::uint8_t {
  kXml = 0,
  kBinary = 1,
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kError = 1,  // bad request, unknown library, campaign failure
  kShed = 2,   // admission control rejected the request (queue overflow)
};

[[nodiscard]] std::string_view to_string(Endpoint endpoint) noexcept;
[[nodiscard]] std::string_view to_string(BundleKind kind) noexcept;
[[nodiscard]] std::string_view to_string(WireFormat format) noexcept;
[[nodiscard]] std::string_view to_string(ResponseStatus status) noexcept;

struct DeriveRequest {
  Endpoint endpoint = Endpoint::kDerive;
  std::string soname;
  // Result-affecting campaign knobs; defaults mirror injector::InjectorConfig.
  // Engine knobs (jobs, snapshot_reset) are deliberately absent: they never
  // change a single output byte, so they are the server's business.
  std::uint64_t seed = 42;
  int variants = 2;
  std::uint64_t probe_step_budget = 2'000'000;
  std::uint64_t testbed_heap = 256 << 10;
  std::uint64_t testbed_stack = 64 << 10;
  BundleKind bundle = BundleKind::kRobustness;  // kBundle requests only
  WireFormat format = WireFormat::kXml;

  // The campaign configuration this request pins down.
  [[nodiscard]] injector::InjectorConfig injector_config() const;

  // Canonical single-flight key: two requests with equal keys are satisfied
  // by one computation and receive byte-identical response bytes.
  [[nodiscard]] std::string canonical_key() const;

  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Result<DeriveRequest> from_xml(const xml::Node& node);
  [[nodiscard]] std::string encode() const;  // in this->format
  // Format-sniffing decoder: binary by magic, otherwise XML.
  [[nodiscard]] static Result<DeriveRequest> decode(std::string_view payload);
};

struct DeriveResponse {
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t probes = 0;   // campaign's recorded probe count (kDerive ok)
  std::string error;          // kError / kShed detail
  std::string payload;        // campaign document or bundle C source

  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Result<DeriveResponse> from_xml(const xml::Node& node);
  [[nodiscard]] std::string encode(WireFormat format) const;
  [[nodiscard]] static Result<DeriveResponse> decode(std::string_view payload);
};

// The status of a binary response, read without decoding the rest of it;
// nullopt for an XML envelope or a malformed status word.
[[nodiscard]] std::optional<ResponseStatus> binary_response_status(std::string_view payload);

}  // namespace healers::server
