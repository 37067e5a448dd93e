// Fleet producer side: N simulated hosts, each running wrapped apps through
// the simulated linker (paper §2.3: profiling wrappers in many processes
// across a distributed environment) and emitting one profile document per
// app run — XML or the compact binary wire format, per config.
//
// Determinism: every document is a pure function of (seed, host, doc index).
// Each app run gets a private RNG seeded from those coordinates, the cycle
// clock is virtual, and hosts write into preassigned output slots, so run()
// returns the same documents for every `jobs` value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/toolkit.hpp"

namespace healers::fleet {

struct SimulatorConfig {
  unsigned hosts = 8;
  unsigned docs_per_host = 8;  // app runs (= documents) per host
  std::uint64_t seed = 2003;
  enum class Encoding : std::uint8_t { kXml, kBinary, kMixed } encoding = Encoding::kMixed;
  unsigned jobs = 1;  // hosts simulated in parallel; 0 = all cores
};

class FleetSimulator {
 public:
  FleetSimulator(const core::Toolkit& toolkit, SimulatorConfig config = {});

  // Emits hosts * docs_per_host documents, host-major order.
  [[nodiscard]] std::vector<std::string> run() const;

  // The config in effect: a 0 host or document count is run as 1.
  [[nodiscard]] const SimulatorConfig& config() const noexcept { return config_; }

  // Process name of one app run ("host03/app007") — the placement key tests
  // and the collector's sketch sharding rely on.
  [[nodiscard]] static std::string process_name(unsigned host, unsigned doc);

 private:
  void run_host(unsigned host, std::vector<std::string>& out) const;

  const core::Toolkit& toolkit_;
  SimulatorConfig config_;
};

}  // namespace healers::fleet
