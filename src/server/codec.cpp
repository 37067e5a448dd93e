#include "server/codec.hpp"

#include "fleet/wire.hpp"
#include "xml/xml.hpp"

namespace healers::server {
namespace {

template <class Ar>
void fields(Ar& ar, injector::CampaignResult& campaign) {
  ar(campaign.library, campaign.seed);
  ar.each(campaign.specs, [](auto& ar, auto& spec) {
    ar(spec.function, spec.library, spec.declaration, spec.total_probes, spec.total_failures,
       spec.crashes, spec.hangs, spec.aborts);
    ar.flags(spec.skipped_noreturn);
    ar.each(spec.args, [](auto& ar, auto& arg) {
      ar(arg.index, arg.ctype);
      ar.enumeration(arg.cls, parser::TypeClass::kPointer);
      auto& checks = arg.checks;
      ar.flags(checks.require_nonnull, checks.require_mapped, checks.require_writable,
               checks.require_terminated, checks.require_size_check, checks.require_heap_pointer,
               checks.require_file, checks.require_callback, checks.range);
      ar.each(arg.verdicts, [](auto& ar, auto& verdict) {
        ar.enumeration(verdict.id, lattice::TestTypeId::kFInf);
        ar(verdict.probes, verdict.failures, verdict.crashes, verdict.hangs, verdict.aborts,
           verdict.first_failure);
      });
    });
  });
}

constexpr auto kSchema = [](auto& ar, auto& doc) { fields(ar, doc); };

}  // namespace

std::string encode_campaign_binary(const injector::CampaignResult& campaign) {
  return fleet::codec::encode(kCampaignMagic, campaign, kSchema);
}

Result<injector::CampaignResult> decode_campaign_binary(std::string_view payload) {
  return fleet::codec::decode<injector::CampaignResult>(payload, kCampaignMagic, "binary campaign",
                                                        kSchema);
}

Result<injector::CampaignResult> decode_campaign(std::string_view payload) {
  if (is_campaign_binary(payload)) return decode_campaign_binary(payload);
  auto parsed = xml::parse(payload);
  if (!parsed.ok()) return Error("xml campaign: " + parsed.error().message);
  return injector::CampaignResult::from_xml(parsed.value());
}

bool is_campaign_binary(std::string_view payload) noexcept {
  return fleet::codec::has_magic(payload, kCampaignMagic);
}

}  // namespace healers::server
