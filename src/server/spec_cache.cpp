#include "server/spec_cache.hpp"

#include <fstream>
#include <sstream>

#include "fleet/wire.hpp"
#include "server/codec.hpp"
#include "xml/xml.hpp"

namespace healers::server {
namespace {

// The cache key every campaign-derived entry carries.
template <class Ar, class Entry>
void key_fields(Ar& ar, Entry& entry) {
  ar(entry.soname, entry.fingerprint, entry.seed, entry.variants, entry.probe_step_budget,
     entry.testbed_heap, entry.testbed_stack);
}

template <class Ar>
void fields(Ar& ar, core::CachedCampaign& entry) {
  key_fields(ar, entry);
  ar.document(entry.result, encode_campaign_binary, decode_campaign_binary);
}

template <class Ar>
void fields(Ar& ar, lattice::SignatureProfile& profile) {
  ar(profile.signature);
  // A different lattice shape cannot be merged tally-for-tally.
  ar.expect(static_cast<std::uint32_t>(lattice::kTestTypeCount));
  for (std::size_t i = 0; i < lattice::kTestTypeCount; ++i) ar(profile.passes[i], profile.fails[i]);
}

std::string policy_xml(const gen::RepairPolicy& policy) { return xml::serialize(policy.to_xml()); }

Result<gen::RepairPolicy> parse_policy(std::string_view text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.error();
  return gen::RepairPolicy::from_xml(doc.value());
}

template <class Ar>
void fields(Ar& ar, core::CachedRepairPolicy& entry) {
  key_fields(ar, entry);
  ar.document(entry.policy, policy_xml, parse_policy);
}

template <class Ar>
void fields(Ar& ar, core::SurfaceScope& entry) {
  ar(entry.executable, entry.soname, entry.fingerprint, entry.symbols);
}

constexpr auto kSchema = [](auto& ar, auto& doc) { fields(ar, doc); };

}  // namespace

std::string encode_cache_entry(const core::CachedCampaign& entry) {
  return fleet::codec::encode(kCacheEntryMagic, entry, kSchema);
}

Result<core::CachedCampaign> decode_cache_entry(std::string_view payload) {
  return fleet::codec::decode<core::CachedCampaign>(payload, kCacheEntryMagic, "cache entry",
                                                    kSchema);
}

std::string encode_profile_entry(const lattice::SignatureProfile& profile) {
  return fleet::codec::encode(kProfileEntryMagic, profile, kSchema);
}

Result<lattice::SignatureProfile> decode_profile_entry(std::string_view payload) {
  return fleet::codec::decode<lattice::SignatureProfile>(payload, kProfileEntryMagic,
                                                         "profile entry", kSchema);
}

std::string encode_repair_entry(const core::CachedRepairPolicy& entry) {
  return fleet::codec::encode(kRepairEntryMagic, entry, kSchema);
}

Result<core::CachedRepairPolicy> decode_repair_entry(std::string_view payload) {
  return fleet::codec::decode<core::CachedRepairPolicy>(payload, kRepairEntryMagic,
                                                        "repair entry", kSchema);
}

std::string encode_surface_entry(const core::SurfaceScope& entry) {
  return fleet::codec::encode(kSurfaceEntryMagic, entry, kSchema);
}

Result<core::SurfaceScope> decode_surface_entry(std::string_view payload) {
  return fleet::codec::decode<core::SurfaceScope>(payload, kSurfaceEntryMagic, "surface entry",
                                                  kSchema);
}

std::string encode_cache_file(const std::vector<core::CachedCampaign>& entries) {
  std::vector<std::string> documents;
  documents.reserve(entries.size());
  for (const core::CachedCampaign& entry : entries) documents.push_back(encode_cache_entry(entry));
  return fleet::frame_stream(documents);
}

Result<std::vector<core::CachedCampaign>> decode_cache_file(std::string_view image) {
  auto documents = fleet::unframe_stream(image);
  if (!documents.ok()) return Error("cache file: " + documents.error().message);
  std::vector<core::CachedCampaign> entries;
  entries.reserve(documents.value().size());
  for (const std::string& doc : documents.value()) {
    auto entry = decode_cache_entry(doc);
    if (!entry.ok()) return entry.error();
    entries.push_back(std::move(entry).take());
  }
  return entries;
}

Status save_cache_file(const core::Toolkit& toolkit, const std::string& path) {
  // Campaign entries (canonical key order) followed by profile entries
  // (sorted by signature) — the whole image is deterministic.
  std::vector<std::string> documents;
  for (const core::CachedCampaign& entry : toolkit.export_campaigns()) {
    documents.push_back(encode_cache_entry(entry));
  }
  for (const lattice::SignatureProfile& profile :
       toolkit.implication_profiles()->export_profiles()) {
    documents.push_back(encode_profile_entry(profile));
  }
  for (const core::CachedRepairPolicy& entry : toolkit.export_repair_policies()) {
    documents.push_back(encode_repair_entry(entry));
  }
  for (const core::SurfaceScope& entry : toolkit.export_surface_scopes()) {
    documents.push_back(encode_surface_entry(entry));
  }
  const std::string image = fleet::frame_stream(documents);
  std::ofstream out(path, std::ios::binary);
  out << image;
  out.close();  // flushes: an image smaller than the buffer fails only here
  if (!out) return Status::failure("cannot write " + path);
  return Status::success();
}

Result<std::size_t> load_cache_file(const core::Toolkit& toolkit, const std::string& path,
                                    std::size_t* skipped_unknown) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto documents = fleet::unframe_stream(buffer.str());
  if (!documents.ok()) return Error(path + ": " + documents.error().message);
  std::vector<core::CachedCampaign> campaigns;
  std::vector<lattice::SignatureProfile> profiles;
  std::vector<core::CachedRepairPolicy> repairs;
  std::vector<core::SurfaceScope> scopes;
  std::size_t unknown = 0;
  const auto keep = [&path](auto decoded, auto& into) -> Status {
    if (!decoded.ok()) return Error(path + ": " + decoded.error().message);
    into.push_back(std::move(decoded).take());
    return Status::success();
  };
  for (const std::string& doc : documents.value()) {
    using fleet::codec::has_magic;
    Status status;
    if (has_magic(doc, kCacheEntryMagic)) {
      status = keep(decode_cache_entry(doc), campaigns);
    } else if (has_magic(doc, kProfileEntryMagic)) {
      status = keep(decode_profile_entry(doc), profiles);
    } else if (has_magic(doc, kRepairEntryMagic)) {
      status = keep(decode_repair_entry(doc), repairs);
    } else if (has_magic(doc, kSurfaceEntryMagic)) {
      status = keep(decode_surface_entry(doc), scopes);
    } else {
      // An entry kind this build does not know — written by a newer toolkit.
      // Skipping it keeps old readers serving everything they DO understand.
      ++unknown;
    }
    if (!status.ok()) return status.error();
  }
  if (skipped_unknown != nullptr) *skipped_unknown = unknown;
  toolkit.implication_profiles()->import_profiles(profiles);
  toolkit.import_repair_policies(std::move(repairs));
  toolkit.import_surface_scopes(std::move(scopes));
  return toolkit.import_campaigns(std::move(campaigns));
}

}  // namespace healers::server
