// Golden binary wire documents shared by the wire-format tests.
//
// build_goldens() encodes one fixed input per binary format (two request
// kinds, three response statuses, all four spec-cache entry kinds). The
// checked-in fixture tests/fixtures/wire_goldens.txt records their bytes
// together with the byte offsets of every element-count field, and
// tests/fixtures/wire_verdicts.txt records how the decoders judged a seeded
// mutant corpus built from them (mutant_verdicts below). Both fixtures were
// written once from the hand-framed codecs these formats started with; a
// codec change that moves a single byte or flips a single verdict fails.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "debloat/reachability.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "incident/recorder.hpp"
#include "server/codec.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"

#ifndef HEALERS_FIXTURE_DIR
#error "HEALERS_FIXTURE_DIR must name tests/fixtures"
#endif

namespace healers::wiretest {

struct Golden {
  std::string name;  // "<magic>" or "<magic>-<variant>"
  std::string bytes;
};

// Decodes one payload of a format and re-encodes the result; nullopt when
// the decoder rejects the payload.
using RoundTrip = std::optional<std::string> (*)(std::string_view);

template <class R, class Encode>
std::optional<std::string> reencode(const R& decoded, Encode encode) {
  if (!decoded.ok()) return std::nullopt;
  return encode(decoded.value());
}

struct Format {
  std::string_view magic;
  RoundTrip round_trip;
};

inline const Format kFormats[] = {
    {"HFB1",
     [](std::string_view p) {
       return reencode(fleet::decode_binary(p), fleet::encode_binary);
     }},
    {"HDB1",
     [](std::string_view p) {
       return reencode(fleet::decode_dossier_binary(p), fleet::encode_dossier_binary);
     }},
    {"HSP1",
     [](std::string_view p) {
       return reencode(fleet::decode_surface_binary(p), fleet::encode_surface_binary);
     }},
    {"HFDS1",
     [](std::string_view p) { return reencode(fleet::unframe_stream(p), fleet::frame_stream); }},
    {"HCB1",
     [](std::string_view p) {
       return reencode(server::decode_campaign_binary(p), server::encode_campaign_binary);
     }},
    {"HRQ1",
     // The binary image whatever envelope format the request asks for.
     [](std::string_view p) {
       return reencode(server::DeriveRequest::decode(p), [](const server::DeriveRequest& r) {
         return std::string(server::kRequestMagic) + r.canonical_key();
       });
     }},
    {"HRS1",
     [](std::string_view p) {
       return reencode(server::DeriveResponse::decode(p), [](const server::DeriveResponse& r) {
         return r.encode(server::WireFormat::kBinary);
       });
     }},
    {"HSCE1",
     [](std::string_view p) {
       return reencode(server::decode_cache_entry(p), server::encode_cache_entry);
     }},
    {"HSIP1",
     [](std::string_view p) {
       return reencode(server::decode_profile_entry(p), server::encode_profile_entry);
     }},
    {"HSRP1",
     [](std::string_view p) {
       return reencode(server::decode_repair_entry(p), server::encode_repair_entry);
     }},
    {"HSSP1",
     [](std::string_view p) {
       return reencode(server::decode_surface_entry(p), server::encode_surface_entry);
     }},
};

inline const Format& format_of(std::string_view golden_name) {
  const std::string_view magic = golden_name.substr(0, golden_name.find('-'));
  for (const Format& format : kFormats) {
    if (format.magic == magic) return format;
  }
  throw std::logic_error("no format for golden " + std::string(golden_name));
}

// --- fixed inputs ----------------------------------------------------------

inline injector::InjectorConfig seed42() {
  injector::InjectorConfig config;
  config.seed = 42;
  config.jobs = 1;
  return config;
}

// A profiling wrapper's report with per-function and global errno tallies.
inline profile::ProfileReport profile_input() {
  profile::ProfileReport report;
  report.process = "netd";
  report.wrapper = "profiling";
  profile::FunctionProfile strcpy_fn;
  strcpy_fn.symbol = "strcpy";
  strcpy_fn.calls = 12;
  strcpy_fn.cycles = 480;
  strcpy_fn.contained = 1;
  strcpy_fn.errno_counts[22] = 1;
  profile::FunctionProfile wctrans_fn;
  wctrans_fn.symbol = "wctrans";
  wctrans_fn.calls = 40;
  wctrans_fn.cycles = 1'900;
  wctrans_fn.errno_counts[22] = 3;
  wctrans_fn.errno_counts[84] = 1;
  report.functions = {strcpy_fn, wctrans_fn};
  report.global_errnos = {{22, 4}, {84, 1}};
  return report;
}

// The demo-heap attack under the repair wrapper: a dossier carrying one
// RepairEvent (what `healers dossier demo-heap --repair` records).
inline incident::Dossier dossier_input(const core::Toolkit& toolkit) {
  auto wrapper =
      toolkit.repair_wrapper("libsimc.so.1", toolkit.derive_robust_api("libsimc.so.1").value());
  incident::FlightRecorder recorder;
  recorder.set_process_name("netd");
  (void)attacks::run_heap_smash_attack(toolkit.catalog(), {wrapper.value()}, false, &recorder);
  return recorder.dossiers().front();
}

// netd (the demo-heap victim) run demand-loaded to completion.
inline debloat::SurfaceProfile surface_input(const core::Toolkit& toolkit) {
  const linker::Executable exe = attacks::heap_victim_executable();
  const debloat::ReachabilityReport report = debloat::compute_reachability(exe, toolkit.catalog());
  auto proc = debloat::spawn_debloated(exe, toolkit.catalog(), report);
  (void)proc->run(exe.entry);
  return debloat::capture_surface_profile(*proc, report, "host-a");
}

inline std::vector<Golden> build_goldens() {
  core::Toolkit toolkit;
  std::vector<Golden> goldens;
  const std::string profile_doc = fleet::encode_binary(profile_input());
  const std::string dossier_doc = fleet::encode_dossier_binary(dossier_input(toolkit));
  const std::string surface_doc = fleet::encode_surface_binary(surface_input(toolkit));
  goldens.push_back({"HFB1", profile_doc});
  goldens.push_back({"HDB1", dossier_doc});
  goldens.push_back({"HSP1", surface_doc});
  goldens.push_back({"HFDS1", fleet::frame_stream({profile_doc, dossier_doc, surface_doc})});

  // The libsimm seed-42 campaign and everything the spec cache keeps of it,
  // derived in a toolkit of its own so each export holds exactly its entry.
  core::Toolkit campaign_toolkit;
  const injector::CampaignResult campaign =
      campaign_toolkit.derive_robust_api("libsimm.so.1", seed42()).value();
  (void)campaign_toolkit.derive_repair_policy("libsimm.so.1", seed42()).value();
  goldens.push_back({"HCB1", server::encode_campaign_binary(campaign)});

  server::DeriveRequest derive;
  derive.soname = "libsimm.so.1";
  derive.seed = 42;
  derive.format = server::WireFormat::kBinary;
  goldens.push_back({"HRQ1-derive", derive.encode()});
  server::DeriveRequest bundle;
  bundle.endpoint = server::Endpoint::kBundle;
  bundle.soname = "libsimc.so.1";
  bundle.seed = 7;
  bundle.variants = 1;
  bundle.bundle = server::BundleKind::kRepair;
  bundle.format = server::WireFormat::kBinary;
  goldens.push_back({"HRQ1-bundle", bundle.encode()});

  server::DeriveResponse ok;
  ok.probes = campaign.total_probes();
  ok.payload = "/* HEALERS security wrapper bundle */\nint healers_bundle = 1;\n";
  goldens.push_back({"HRS1-ok", ok.encode(server::WireFormat::kBinary)});
  server::DeriveResponse error;
  error.status = server::ResponseStatus::kError;
  error.error = "unknown library libnope.so";
  goldens.push_back({"HRS1-error", error.encode(server::WireFormat::kBinary)});
  server::DeriveResponse shed;
  shed.status = server::ResponseStatus::kShed;
  shed.error = "admission queue full";
  goldens.push_back({"HRS1-shed", shed.encode(server::WireFormat::kBinary)});

  goldens.push_back({"HSCE1", server::encode_cache_entry(campaign_toolkit.export_campaigns().at(0))});
  goldens.push_back({"HSIP1", server::encode_profile_entry(
                                  campaign_toolkit.implication_profiles()->export_profiles().at(0))});
  goldens.push_back(
      {"HSRP1", server::encode_repair_entry(campaign_toolkit.export_repair_policies().at(0))});
  core::SurfaceScope scope;
  scope.executable = "netd";
  scope.soname = "libsimc.so.1";
  scope.fingerprint = 0x5eed'0042'cafe'f00dULL;
  scope.symbols = {"free", "malloc", "memcpy", "puts", "strcpy", "strlen"};
  goldens.push_back({"HSSP1", server::encode_surface_entry(scope)});
  return goldens;
}

// --- fixtures --------------------------------------------------------------

struct FixtureGolden {
  std::string name;
  std::vector<std::size_t> count_offsets;  // byte offsets of u32 element counts
  std::string bytes;
};

inline std::string fixture_path(std::string_view file) {
  return std::string(HEALERS_FIXTURE_DIR) + "/" + std::string(file);
}

inline std::string read_fixture(std::string_view file) {
  std::ifstream in(fixture_path(file), std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

inline std::string from_hex(std::string_view hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

// wire_goldens.txt: one golden per line, "<name> <offsets> <hex>", where
// <offsets> is a comma-separated list or "-"; '#' lines are comments.
inline std::vector<FixtureGolden> load_goldens() {
  std::vector<FixtureGolden> goldens;
  std::istringstream in(read_fixture("wire_goldens.txt"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    FixtureGolden golden;
    std::string offsets;
    std::string hex;
    fields >> golden.name >> offsets >> hex;
    if (offsets != "-") {
      std::istringstream list(offsets);
      std::string item;
      while (std::getline(list, item, ',')) golden.count_offsets.push_back(std::stoul(item));
    }
    golden.bytes = from_hex(hex);
    goldens.push_back(std::move(golden));
  }
  return goldens;
}

// --- mutant corpus ---------------------------------------------------------

inline constexpr std::size_t kMaxBitFlips = 512;

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline void put_u32_at(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xffU);
}

// The three mutant classes of one golden, in a fixed order: every strict
// prefix, up to kMaxBitFlips single-bit flips (every bit when the golden has
// no more, else seeded draws), and each count field set to 0xFFFFFFFF.
struct MutantClass {
  std::string_view name;
  std::vector<std::string> mutants;
};

inline std::vector<MutantClass> mutant_corpus(const FixtureGolden& golden) {
  const std::string& bytes = golden.bytes;
  MutantClass truncations{"trunc", {}};
  for (std::size_t n = 0; n < bytes.size(); ++n) truncations.mutants.push_back(bytes.substr(0, n));
  MutantClass flips{"flip", {}};
  const std::size_t bits = bytes.size() * 8;
  std::uint64_t state = fleet::fnv1a(golden.name);
  for (std::size_t i = 0; i < std::min(bits, kMaxBitFlips); ++i) {
    const std::size_t bit = bits <= kMaxBitFlips ? i : splitmix64(state) % bits;
    std::string mutant = bytes;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    flips.mutants.push_back(std::move(mutant));
  }
  MutantClass counts{"count", {}};
  for (const std::size_t offset : golden.count_offsets) {
    std::string mutant = bytes;
    put_u32_at(mutant, offset, 0xffffffffU);
    counts.mutants.push_back(std::move(mutant));
  }
  std::vector<MutantClass> corpus;
  corpus.push_back(std::move(truncations));
  corpus.push_back(std::move(flips));
  corpus.push_back(std::move(counts));
  return corpus;
}

// One line per (golden, mutant class): "<name> <class> <verdicts...>". A
// verdict is "x" for a rejected mutant (a run of k > 1 rejects is "x<k>") or
// the 16-hex-digit fnv1a of the accepted mutant's re-encoding.
inline std::string mutant_verdicts(const FixtureGolden& golden) {
  const RoundTrip round_trip = format_of(golden.name).round_trip;
  std::ostringstream out;
  for (const MutantClass& cls : mutant_corpus(golden)) {
    out << golden.name << ' ' << cls.name;
    std::size_t rejects = 0;
    const auto flush_rejects = [&] {
      if (rejects == 1) out << " x";
      if (rejects > 1) out << " x" << rejects;
      rejects = 0;
    };
    for (const std::string& mutant : cls.mutants) {
      const std::optional<std::string> reencoded = round_trip(mutant);
      if (!reencoded) {
        ++rejects;
        continue;
      }
      flush_rejects();
      char hash[17];
      std::snprintf(hash, sizeof hash, "%016llx",
                    static_cast<unsigned long long>(fleet::fnv1a(*reencoded)));
      out << ' ' << hash;
    }
    flush_rejects();
    out << '\n';
  }
  return out.str();
}

}  // namespace healers::wiretest
