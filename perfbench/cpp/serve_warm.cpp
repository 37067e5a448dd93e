// serve-warm: a restarted, warmed derivation server under open-loop traffic.
//
// Preparation (untimed, once): campaigns and repair policies for 4 seeds x 3
// libraries are derived and saved as a spec-cache file. Setup, once per
// repetition: a fresh Toolkit imports that file, a DeriveServer (2 workers)
// starts on it and answers one request per hot key.
//
// Open loop: requests arrive on a seeded Poisson schedule at a fixed rate;
// the one generator thread submits each when it is due and calls drain()
// whenever requests are pending. Keys range over (library, seed, endpoint =
// derive or bundle x 4 kinds, format = XML or binary). Most requests are a
// Zipf draw over the hot keys and hit the response cache; every 25th asks
// for a key the server has not answered yet, whose first sighting does memo
// hit + gen + encode work. Latency runs from when a request was due to when
// its drain returned; a shed or error counts as missing every limit. A
// separate saturating phase on a fresh, warmed server measures capacity.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/toolkit.hpp"
#include "gen/repair_policy.hpp"
#include "server/codec.hpp"
#include "server/derive_server.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"
#include "wrappers/wrappers.hpp"
#include "xml/xml.hpp"

using namespace healers;

namespace perfbench {
namespace {

constexpr const char* kLibs[] = {"libsimc.so.1", "libsimio.so.1", "libsimm.so.1"};
constexpr std::size_t kEndpoints = 5;          // derive + 4 bundle kinds
constexpr std::size_t kKeysPerSeed = 3 * kEndpoints * 2;  // libraries x endpoints x formats
constexpr std::size_t kHotSeeds = 2;
constexpr std::size_t kColdSeeds = 2;
constexpr std::size_t kHotKeys = kHotSeeds * kKeysPerSeed;
constexpr std::size_t kColdKeys = kColdSeeds * kKeysPerSeed;
constexpr double kRatePerS = 1000;             // open-loop arrival rate
constexpr double kZipfS = 1.0;
constexpr std::size_t kColdEvery = 25;         // every 25th request is a first sighting
constexpr double kTailQ = 0.99;
constexpr std::size_t kRequests = 1200;        // per repetition: > 10 samples beyond p99
constexpr double kCapacityS = 0.25;            // capacity phase per repetition
constexpr double kRepetitionS = 1.6;           // wall time one repetition takes, about
constexpr std::size_t kBurst = 256;            // capacity phase: requests per drain
constexpr std::size_t kGateKeys = 16;          // responses byte-compared to a fresh server
constexpr std::size_t kReplayEvery = 64;       // traced: replay every 64th request too
constexpr double kMissedUs = 1e12;             // latency recorded for a shed or error

static_assert(kRequests / kColdEvery <= kColdKeys, "a repetition must not run out of cold keys");

struct Key {
  server::DeriveRequest request;
  std::string bytes;
};

// The keys: kHotKeys hot ones in Zipf rank order, then kColdKeys cold ones.
// Hot ranks cycle through libraries, then endpoints, then seeds, so every
// run's hot set is equally balanced; the hotter half asks for XML documents,
// the colder half for binary ones. Cold keys cycle through libraries,
// endpoints and formats, so any run of consecutive cold keys is an even mix
// of first-sighting work. The workload seed picks the campaign seeds.
std::vector<Key> make_keys(std::uint64_t seed) {
  const server::BundleKind kinds[] = {server::BundleKind::kRobustness, server::BundleKind::kSecurity,
                                      server::BundleKind::kProfiling, server::BundleKind::kRepair};
  std::vector<Key> keys;
  const auto add = [&](std::size_t lib, std::size_t endpoint, std::size_t seed_index, bool xml) {
    Key key;
    key.request.soname = kLibs[lib];
    key.request.seed = mix(seed, seed_index) % 100'000;
    key.request.format = xml ? server::WireFormat::kXml : server::WireFormat::kBinary;
    if (endpoint > 0) {
      key.request.endpoint = server::Endpoint::kBundle;
      key.request.bundle = kinds[endpoint - 1];
    }
    key.bytes = key.request.encode();
    keys.push_back(std::move(key));
  };
  for (std::size_t r = 0; r < kHotKeys; ++r) {
    add(r % 3, (r / 3) % kEndpoints, (r / (3 * kEndpoints)) % kHotSeeds, r < kHotKeys / 2);
  }
  for (std::size_t c = 0; c < kColdKeys; ++c) {
    add(c % 3, (c / 3) % kEndpoints, kHotSeeds + (c / kKeysPerSeed), (c / (3 * kEndpoints)) % 2 == 0);
  }
  return keys;
}

// The request stream (indices into make_keys) with Poisson arrival offsets
// in seconds from the start of the loop. Cold keys are taken in order from
// a seeded starting point, so no cold key repeats within a schedule.
struct Schedule {
  std::vector<std::size_t> key;
  std::vector<double> due_s;
};

Schedule make_schedule(std::uint64_t seed, std::size_t n) {
  std::vector<double> cdf(kHotKeys);
  double total = 0;
  for (std::size_t r = 0; r < kHotKeys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  Schedule s;
  double t = 0;
  std::size_t cold = mix(seed, ~0ULL) % kColdKeys;
  for (std::size_t i = 0; i < n; ++i) {
    const double u1 = static_cast<double>(mix(seed, 2 * i) >> 11) * 0x1.0p-53;
    const double u2 = static_cast<double>(mix(seed, 2 * i + 1) >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u1) / kRatePerS;
    if (i % kColdEvery == kColdEvery - 1) {
      s.key.push_back(kHotKeys + cold++ % kColdKeys);
    } else {
      const auto r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u2 * total) - cdf.begin());
      s.key.push_back(std::min(r, kHotKeys - 1));
    }
    s.due_s.push_back(t);
  }
  return s;
}

// Derives every campaign and repair policy the keys can ask for and saves
// them as a spec-cache file — what an earlier server run leaves on disk.
std::string prepare_cache_file(const std::vector<Key>& keys, const std::string& dir) {
  core::Toolkit toolkit;
  std::set<std::pair<std::string, std::uint64_t>> done;
  for (const Key& key : keys) {
    if (!done.insert({key.request.soname, key.request.seed}).second) continue;
    injector::InjectorConfig config = key.request.injector_config();
    config.jobs = static_cast<int>(kPoolThreads);
    if (!toolkit.derive_robust_api(key.request.soname, config).ok() ||
        !toolkit.derive_repair_policy(key.request.soname, config).ok()) {
      throw std::runtime_error("cannot derive " + key.request.soname);
    }
  }
  const std::string path = dir + "/serve-warm-" + std::to_string(::getpid()) + ".cache";
  const auto saved = server::save_cache_file(toolkit, path);
  if (!saved.ok()) throw std::runtime_error(saved.error().message);
  return path;
}

server::ServerConfig server_config() {
  server::ServerConfig config;
  config.workers = kPoolThreads;
  return config;
}

// A server restarted from the cache file.
struct Restarted {
  std::unique_ptr<core::Toolkit> toolkit;
  std::unique_ptr<server::DeriveServer> server;
};

Restarted restart(const std::string& cache_path, Tracer& tracer) {
  Restarted r;
  r.toolkit = std::make_unique<core::Toolkit>();
  {
    Span span(tracer, "server.spec_cache_load");
    const auto loaded = server::load_cache_file(*r.toolkit, cache_path);
    if (!loaded.ok()) throw std::runtime_error(loaded.error().message);
  }
  r.server = std::make_unique<server::DeriveServer>(*r.toolkit, server_config());
  return r;
}

// Answers one request for each of keys[0, count) so they hit the response
// cache from then on; returns the number of tickets left unanswered.
std::uint64_t warm_up(server::DeriveServer& srv, const std::vector<Key>& keys, std::size_t count) {
  std::vector<server::DeriveServer::Ticket> tickets;
  for (std::size_t k = 0; k < count; ++k) tickets.push_back(srv.submit(keys[k].bytes));
  srv.drain();
  std::uint64_t unanswered = 0;
  for (const auto ticket : tickets) {
    if (srv.take_response(ticket) == nullptr) ++unanswered;
  }
  return unanswered;
}

struct LoopOut {
  std::vector<double> latency_us;  // per request, from due to answered
  std::vector<std::shared_ptr<const std::string>> responses;
  double late_us = 0;        // summed generator lateness at submit
  double queue_wait_us = 0;  // summed submit -> drain start
  std::uint64_t unanswered = 0;
};

// Spins until `when`. The generator never sleeps between arrivals: waking
// from a sleep would add its own latency to the request it is about to send.
void wait_until(Clock::time_point when) {
  while (Clock::now() < when) {
  }
}

void open_loop(server::DeriveServer& srv, const std::vector<Key>& keys, const Schedule& schedule,
               std::size_t n, Tracer& tracer, LoopOut& out) {
  struct Pending {
    server::DeriveServer::Ticket ticket;
    std::size_t index;
    Clock::time_point submitted;
  };
  std::vector<Pending> pending;
  out.latency_us.resize(n);
  out.responses.resize(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule.due_s[i]));
  };
  std::size_t i = 0;
  std::uint64_t cycle = 0;
  while (i < n) {
    wait_until(due(i));
    Span root(tracer, "serve-warm.sample", cycle++);
    for (auto now = Clock::now(); i < n && due(i) <= now; ++i, now = Clock::now()) {
      out.late_us += std::chrono::duration<double, std::micro>(now - due(i)).count();
      server::DeriveServer::Ticket ticket;
      {
        Span span(tracer, "server.submit");
        ticket = srv.submit(keys[schedule.key[i]].bytes);
      }
      pending.push_back({ticket, i, now});
    }
    const auto drain_start = Clock::now();
    {
      Span span(tracer, "server.drain");
      srv.drain();
    }
    const auto done = Clock::now();
    for (const Pending& p : pending) {
      out.queue_wait_us += std::chrono::duration<double, std::micro>(drain_start - p.submitted).count();
      auto response = srv.take_response(p.ticket);
      if (response == nullptr) ++out.unanswered;
      out.latency_us[p.index] = std::chrono::duration<double, std::micro>(done - due(p.index)).count();
      out.responses[p.index] = std::move(response);
    }
    pending.clear();
  }
}

// Decodes the status of every distinct response blob (cache hits share one
// blob) and records each shed or error response as having missed every
// latency limit. Returns the number of undecodable blobs.
std::uint64_t classify(LoopOut& out) {
  std::uint64_t undecodable = 0;
  std::map<const std::string*, server::ResponseStatus> memo;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    const auto& blob = out.responses[i];
    if (blob == nullptr) continue;
    auto [it, inserted] = memo.try_emplace(blob.get(), server::ResponseStatus::kError);
    if (inserted) {
      auto decoded = server::DeriveResponse::decode(*blob);
      if (!decoded.ok()) {
        ++undecodable;
      } else {
        it->second = decoded.value().status;
      }
    }
    if (it->second != server::ResponseStatus::kOk) out.latency_us[i] = kMissedUs;
  }
  return undecodable;
}

// The generator list DeriveServer composes for a bundle request.
gen::WrapperBuilder bundle_builder(const core::Toolkit& toolkit, const server::DeriveRequest& req) {
  gen::WrapperBuilder builder(std::string(server::to_string(req.bundle)) + "-wrapper");
  switch (req.bundle) {
    case server::BundleKind::kRobustness:
      builder.add(gen::prototype_gen()).add(wrappers::arg_check_gen()).add(gen::call_counter_gen())
          .add(gen::caller_gen());
      break;
    case server::BundleKind::kSecurity:
      builder.add(gen::prototype_gen()).add(wrappers::heap_canary_gen())
          .add(wrappers::stack_guard_gen()).add(gen::caller_gen());
      break;
    case server::BundleKind::kProfiling:
      for (const auto& g : wrappers::fig3_generators()) builder.add(g);
      break;
    case server::BundleKind::kRepair: {
      auto policy = toolkit.derive_repair_policy(req.soname, req.injector_config()).value();
      builder.add(gen::prototype_gen())
          .add(wrappers::repair_gen(std::make_shared<const gen::RepairPolicy>(std::move(policy))))
          .add(gen::call_counter_gen())
          .add(gen::caller_gen());
      break;
    }
  }
  return builder;
}

// Traced only: the public calls one request's service is made of, replayed
// on the request's bytes outside the end-to-end time.
void replay_request(const core::Toolkit& toolkit, const std::string& bytes, Tracer& tracer) {
  Span root(tracer, "replay");
  server::DeriveRequest request;
  {
    Span span(tracer, "server.decode");
    request = server::DeriveRequest::decode(bytes).value();
  }
  const bool needs_campaign = request.endpoint == server::Endpoint::kDerive ||
                              request.bundle == server::BundleKind::kRobustness ||
                              request.bundle == server::BundleKind::kRepair;
  injector::CampaignResult campaign;
  if (needs_campaign) {
    Span span(tracer, "core.memo_hit");
    campaign = toolkit.derive_robust_api(request.soname, request.injector_config()).value();
  }
  server::DeriveResponse response;
  response.probes = needs_campaign ? campaign.total_probes() : 0;
  if (request.endpoint == server::Endpoint::kDerive) {
    Span span(tracer, "server.payload_encode");
    response.payload = request.format == server::WireFormat::kBinary
                           ? server::encode_campaign_binary(campaign)
                           : xml::serialize(campaign.to_xml());
  } else {
    Span span(tracer, "gen.bundle_source");
    const gen::WrapperBuilder builder = bundle_builder(toolkit, request);
    response.payload =
        toolkit.wrapper_source(request.soname, builder, needs_campaign ? &campaign : nullptr).value();
  }
  Span span(tracer, "server.response_encode");
  (void)response.encode(request.format);
}

}  // namespace

RunResult run_serve_warm(const Options& options, Tracer& tracer) {
  RunResult result;
  const std::vector<Key> keys = make_keys(options.seed);
  const std::string cache_path = prepare_cache_file(keys, options.scratch_dir);
  struct RemoveFile {
    std::string path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } remove_cache{cache_path};

  // Each repetition restarts a server from the cache file (its set-up time
  // is one setup_s sample), serves its own open-loop schedule, then measures
  // capacity on a second restarted server. Figures are medians over
  // repetitions.
  const std::size_t reps = std::max<std::size_t>(
      4, static_cast<std::size_t>(options.seconds / kRepetitionS / (options.trace ? 2 : 1)));
  // A traced run follows each repetition's open loop with the same schedule
  // traced on another warmed server, so both see the same machine conditions.
  const std::size_t n = kRequests;
  Tracer off(false);
  std::vector<double> setup_times, latency_us;
  std::vector<Interval> capacity;
  double untraced_us = 0, traced_us = 0, traced_late_us = 0, traced_queue_wait_us = 0;
  server::ServerStats traced_stats{};
  std::uint64_t served = 0, unanswered = 0, undecodable = 0;
  const auto check_stats = [&](const server::ServerStats& s, const char* phase) {
    if (s.pending != 0 || s.submitted != s.answered + s.shed + s.pending) {
      result.fail(std::string(phase) + ": submitted != answered + shed + pending, or pending != 0");
    }
    result.attempted += s.submitted;
    result.failed += s.answered_error + s.shed;
    served += s.submitted;
  };
  const auto add_status = [&](LoopOut& out) {
    undecodable += classify(out);
    unanswered += out.unanswered;
  };

  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Schedule schedule = make_schedule(mix(options.seed, 500 + rep), n);
    const auto t0 = Clock::now();
    Restarted live = restart(cache_path, off);
    unanswered += warm_up(*live.server, keys, kHotKeys);
    setup_times.push_back(seconds_between(t0, Clock::now()));

    LoopOut plain;
    open_loop(*live.server, keys, schedule, n, off, plain);
    add_status(plain);
    check_stats(live.server->stats(), "open loop");
    if (live.toolkit->probes_executed() != 0) result.fail("a warm server executed probes");
    latency_us.insert(latency_us.end(), plain.latency_us.begin(), plain.latency_us.end());
    for (const double us : plain.latency_us) untraced_us += std::min(us, kMissedUs);

    if (rep == 0) {
      // Sampled responses must be byte-equal to a fresh server's answer.
      Restarted check = restart(cache_path, off);
      std::vector<std::pair<std::size_t, server::DeriveServer::Ticket>> sampled;
      std::set<std::size_t> picked;
      for (std::size_t i = 0; i < n && sampled.size() < kGateKeys; i += 1 + n / (4 * kGateKeys)) {
        if (plain.responses[i] && picked.insert(schedule.key[i]).second) {
          sampled.push_back({i, check.server->submit(keys[schedule.key[i]].bytes)});
        }
      }
      check.server->drain();
      for (const auto& [i, ticket] : sampled) {
        const auto answer = check.server->take_response(ticket);
        if (answer == nullptr || *answer != *plain.responses[i]) {
          result.fail("response to request " + std::to_string(i) + " differs from a fresh server's");
        }
      }
      if (sampled.empty()) result.fail("no response was byte-compared");
    }

    // Capacity: a fresh server, warmed with one request per key, answering
    // the same key stream in saturating bursts of kBurst requests per drain.
    // First-sighting work shows in the open loop's tail; this is the rate
    // the warm serving path sustains.
    Restarted fresh = restart(cache_path, off);
    unanswered += warm_up(*fresh.server, keys, keys.size());
    std::vector<server::DeriveServer::Ticket> tickets;
    const std::uint64_t primed = fresh.server->stats().submitted;
    const IntervalTimer timer;
    const auto capacity_start = Clock::now();
    for (std::size_t at = 0; seconds_between(capacity_start, Clock::now()) < kCapacityS;) {
      for (std::size_t b = 0; b < kBurst; ++b, ++at) {
        tickets.push_back(fresh.server->submit(keys[schedule.key[at % n]].bytes));
      }
      fresh.server->drain();
      for (const auto ticket : tickets) {
        if (fresh.server->take_response(ticket) == nullptr) ++unanswered;
      }
      tickets.clear();
    }
    const server::ServerStats capacity_stats = fresh.server->stats();
    capacity.push_back(timer.stop(static_cast<double>(capacity_stats.submitted - primed)));
    check_stats(capacity_stats, "capacity");
    if (fresh.toolkit->probes_executed() != 0) result.fail("a warm server executed probes");

    if (options.trace) {
      Restarted traced_server;
      {
        Span root(tracer, "replay");
        traced_server = restart(cache_path, tracer);
      }
      unanswered += warm_up(*traced_server.server, keys, kHotKeys);
      LoopOut traced;
      open_loop(*traced_server.server, keys, schedule, n, tracer, traced);
      add_status(traced);
      const server::ServerStats stats = traced_server.server->stats();
      check_stats(stats, "traced open loop");
      if (traced_server.toolkit->probes_executed() != 0) result.fail("a warm server executed probes");
      for (const double us : traced.latency_us) traced_us += std::min(us, kMissedUs);
      traced_late_us += traced.late_us;
      traced_queue_wait_us += traced.queue_wait_us;
      traced_stats.submitted += stats.submitted;
      traced_stats.deduped += stats.deduped;
      traced_stats.cache_hits += stats.cache_hits;
      std::set<std::size_t> seen;
      for (std::size_t i = 0; i < n; ++i) {
        if (seen.insert(schedule.key[i]).second || i % kReplayEvery == 0) {
          replay_request(*traced_server.toolkit, keys[schedule.key[i]].bytes, tracer);
        }
      }
    }
  }

  if (unanswered != 0) result.fail(std::to_string(unanswered) + " tickets were never answered");
  if (undecodable != 0) result.fail("undecodable responses");
  result.failed += unanswered;

  result.info["repetitions"] = static_cast<double>(reps);
  result.info["requests_per_repetition"] = static_cast<double>(n);
  result.info["keys"] = static_cast<double>(keys.size());
  result.info["rate_per_s"] = kRatePerS;
  result.info["requests_served"] = static_cast<double>(served);

  if (!options.trace) {
    result.set_end_to_end(median(setup_times), latency_us, kTailQ, reps,
                          chunk_rates("serve_capacity_rps", kPoolThreads, capacity, reps));
    return result;
  }

  const double submitted = static_cast<double>(traced_stats.submitted);
  const double requests = static_cast<double>(n * reps);
  result.set("server.spec_cache_load_ms", tracer.mean_s("server.spec_cache_load") * 1e3, "ms");
  result.set("server.submit_ns", tracer.mean_s("server.submit") * 1e9, "ns");
  result.set("server.queue_wait_us", traced_queue_wait_us / requests, "us");
  result.set("server.drain_us", tracer.mean_s("server.drain") * 1e6, "us");
  result.set("server.decode_ns", tracer.mean_s("server.decode") * 1e9, "ns");
  result.set("core.memo_hit_us", tracer.mean_s("core.memo_hit") * 1e6, "us");
  result.set("server.payload_encode_us", tracer.mean_s("server.payload_encode") * 1e6, "us");
  result.set("gen.bundle_source_us", tracer.mean_s("gen.bundle_source") * 1e6, "us");
  result.set("server.response_encode_ns", tracer.mean_s("server.response_encode") * 1e9, "ns");
  result.set("server.dedup_ratio", static_cast<double>(traced_stats.deduped) / submitted, "ratio");
  result.set("server.cache_hit_ratio", static_cast<double>(traced_stats.cache_hits) / submitted,
             "ratio");
  result.set("serve.generator_late_us", traced_late_us / requests, "us");
  result.set("coverage", tracer.coverage("serve-warm"), "ratio");
  result.set("trace_overhead", traced_us / untraced_us, "ratio");
  return result;
}

}  // namespace perfbench
