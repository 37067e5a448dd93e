// Binary codec for campaign results (the derivation server's payload
// format).
//
// Robust-API specs already serialize as self-describing XML (§3.1
// declaration files); at service scale the XML round-trip dominates a warm
// response, so the server can ship the SAME injector::CampaignResult as a
// compact binary document ("HCB1"), described by fields(Ar&,
// injector::CampaignResult&) in codec.cpp and framed with fleet/wire's
// archives. The decoder is strict: truncated or malformed payloads produce
// an error Result, never a partial campaign. Encoding is deterministic —
// identical campaigns encode byte-identically — so served responses can be
// byte-compared across worker counts.
#pragma once

#include <string>
#include <string_view>

#include "injector/robust_spec.hpp"
#include "support/result.hpp"

namespace healers::server {

// Magic prefix of a binary campaign document.
inline constexpr std::string_view kCampaignMagic = "HCB1";

// CampaignResult -> compact binary document.
[[nodiscard]] std::string encode_campaign_binary(const injector::CampaignResult& campaign);

// Strict binary decoder (payload must start with kCampaignMagic).
[[nodiscard]] Result<injector::CampaignResult> decode_campaign_binary(std::string_view payload);

// Format-sniffing decoder: binary by magic, otherwise parsed as a
// <campaign> XML document.
[[nodiscard]] Result<injector::CampaignResult> decode_campaign(std::string_view payload);

// True when the payload carries the binary campaign magic.
[[nodiscard]] bool is_campaign_binary(std::string_view payload) noexcept;

}  // namespace healers::server
