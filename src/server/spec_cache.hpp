// Persistent spec cache for the derivation service.
//
// HEALERS' premise is that robust APIs are derived ONCE per library and then
// reused to harden any application on the host (paper §2.2); this file makes
// "once" survive the process. A cache file is the toolkit's campaign memo
// table with every key spelled out, so a fresh server (or a fresh `healers
// derive` run) imports it and answers matching requests with zero probes —
// observable via Toolkit::probes_executed().
//
// On-disk format: the fleet document-stream framing ("HFDS1\n" +
// u32-length-prefixed payloads, fleet::frame_stream) where each payload is
// one cache entry, dispatched on a per-payload magic. Each entry kind's
// layout is its fields() in spec_cache.cpp:
//
//   "HSCE1"  campaign entry: the cache key + an "HCB1" campaign document
//   "HSIP1"  implication-profile entry: signature + per-test-type tallies
//   "HSRP1"  repair-policy entry: the cache key + a <repair-policy> document
//   "HSSP1"  surface-scope entry: executable, soname, fingerprint, symbols
//
// Repair-policy entries carry campaign-derived RepairPolicy documents under
// the same key and fingerprint discipline as campaigns, so a warm fleet
// ships repaired wrappers without re-deriving (docs/repair.md).
//
// Surface-scope entries (docs/debloat.md) record which symbols of a library
// one executable's static closure can reach; a loaded toolkit scopes
// --debloat campaigns to the union of its installed scopes.
//
// Profile entries carry the cross-campaign implication learning (DESIGN.md,
// "Subsumption pruning"): a warm server fleet loads them and orders/prunes
// probes for novel-but-related argument signatures. A campaign-only file
// (written before profiles existed) still loads — the dispatch just finds
// no HSIP1 payloads.
//
// The fingerprint is part of the key: entries recorded against an older
// build of a library decode fine but are skipped at import, so a cache file
// can never serve stale specs. Both layers are strict decoders — a
// truncated or alien file is an error, never a partial cache. The one
// deliberate leniency is forward compatibility: a payload whose magic this
// build does not know (an entry kind a NEWER writer added) is skipped and
// counted, not fatal — old readers keep serving what they understand.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/toolkit.hpp"
#include "support/result.hpp"

namespace healers::server {

// Magic prefixes of the cache-entry kinds inside the stream framing.
inline constexpr std::string_view kCacheEntryMagic = "HSCE1";
inline constexpr std::string_view kProfileEntryMagic = "HSIP1";
inline constexpr std::string_view kRepairEntryMagic = "HSRP1";
inline constexpr std::string_view kSurfaceEntryMagic = "HSSP1";

// One campaign entry <-> its binary payload.
[[nodiscard]] std::string encode_cache_entry(const core::CachedCampaign& entry);
[[nodiscard]] Result<core::CachedCampaign> decode_cache_entry(std::string_view payload);

// One implication-profile entry <-> its binary payload.
[[nodiscard]] std::string encode_profile_entry(const lattice::SignatureProfile& profile);
[[nodiscard]] Result<lattice::SignatureProfile> decode_profile_entry(std::string_view payload);

// One repair-policy entry <-> its binary payload.
[[nodiscard]] std::string encode_repair_entry(const core::CachedRepairPolicy& entry);
[[nodiscard]] Result<core::CachedRepairPolicy> decode_repair_entry(std::string_view payload);

// One surface-scope entry <-> its binary payload.
[[nodiscard]] std::string encode_surface_entry(const core::SurfaceScope& entry);
[[nodiscard]] Result<core::SurfaceScope> decode_surface_entry(std::string_view payload);

// A campaign-only cache <-> the framed file image (deterministic: entries
// are emitted in the toolkit's canonical key order). Strict: the image must
// contain campaign entries only — save_cache_file writes the mixed stream.
[[nodiscard]] std::string encode_cache_file(const std::vector<core::CachedCampaign>& entries);
[[nodiscard]] Result<std::vector<core::CachedCampaign>> decode_cache_file(std::string_view image);

// Convenience file I/O: save the toolkit's memo table AND its learned
// implication profiles / import a saved file of either vintage.
// load_cache_file returns the number of campaign entries admitted (entries
// whose library or fingerprint no longer matches are decoded but skipped;
// profile/repair/surface entries merge into the toolkit's stores). Payloads
// with an unrecognized magic are counted into *skipped_unknown (when
// non-null) and otherwise ignored — never an error.
[[nodiscard]] Status save_cache_file(const core::Toolkit& toolkit, const std::string& path);
[[nodiscard]] Result<std::size_t> load_cache_file(const core::Toolkit& toolkit,
                                                  const std::string& path,
                                                  std::size_t* skipped_unknown = nullptr);

}  // namespace healers::server
