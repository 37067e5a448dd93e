#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <set>

namespace perfbench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // reports the launching process's footprint when that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

namespace {

// The layers (src/ modules) spans are attributed to.
bool is_layer(const std::string& layer) {
  static const std::set<std::string> kLayers = {
      "parser", "typelattice", "injector", "linker", "memmodel", "simlib", "wrappers",
      "gen",    "incident",    "xml",      "server", "fleet",    "sim",    "core"};
  return kLayers.count(layer) != 0;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

// --- Tracer ---------------------------------------------------------------------

void Tracer::begin(const char* name, std::uint64_t sample) {
  Open open;
  open.name = name;
  open.parent = stack_.empty() ? -1 : stack_.back().id;
  open.sample = stack_.empty() ? sample : stack_.back().sample;
  open.id = next_id_++;
  open.start = Clock::now();
  stack_.push_back(std::move(open));
}

void Tracer::end() {
  const auto now = Clock::now();
  Open open = std::move(stack_.back());
  stack_.pop_back();
  const double dur = seconds_between(open.start, now);
  const double self = std::max(0.0, dur - open.child_s);
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_s += dur;
  if (!stack_.empty()) {
    stack_.back().child_s += dur;
    // Attribute self time to the root this span runs under.
    layer_self_[stack_.front().name][layer_of(open.name)] += self;
  }
  if (stored_.size() < kMaxStored) {
    stored_.push_back(Stored{open.name,
                             std::chrono::duration<double, std::micro>(open.start - epoch_).count(),
                             dur * 1e6, open.id, open.parent, open.sample});
  } else {
    ++dropped_;
  }
}

double Tracer::mean_s(const std::string& name) const {
  const auto it = totals_.find(name);
  if (it == totals_.end() || it->second.count == 0) return 0;
  return it->second.total_s / static_cast<double>(it->second.count);
}

double Tracer::sample_total_s(const std::string& workload) const {
  const auto it = totals_.find(workload + ".sample");
  return it == totals_.end() ? 0 : it->second.total_s;
}

double Tracer::coverage(const std::string& workload) const {
  const double total = sample_total_s(workload);
  const auto it = layer_self_.find(workload + ".sample");
  if (total <= 0 || it == layer_self_.end()) return 0;
  double covered = 0;
  for (const auto& [layer, self] : it->second) {
    if (is_layer(layer)) covered += self;
  }
  return covered / total;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%llu},",
               static_cast<unsigned long long>(dropped_));
  std::fprintf(out, "\"traceEvents\":[\n");
  bool first = true;
  for (const Stored& s : stored_) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"id\":%lld,\"parent\":%lld,\"sample\":%llu}}",
                 first ? "" : ",\n", json_escape(s.name).c_str(),
                 json_escape(layer_of(s.name)).c_str(), s.start_us, s.dur_us,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.sample));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// --- statistics -------------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

std::size_t beyond(const std::vector<double>& samples, double q) {
  const double cut = quantile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [cut](double v) { return v > cut; }));
}

Chunked chunked_quantile(const std::vector<double>& samples, double q, std::size_t chunks) {
  Chunked out;
  chunks = std::max<std::size_t>(1, std::min(chunks, samples.size()));
  out.chunks = chunks;
  out.per_chunk = samples.size();
  out.min_beyond = samples.size();
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::vector<double> chunk(samples.begin() + samples.size() * c / chunks,
                                    samples.begin() + samples.size() * (c + 1) / chunks);
    out.values.push_back(quantile(chunk, q));
    out.per_chunk = std::min(out.per_chunk, chunk.size());
    out.min_beyond = std::min(out.min_beyond, beyond(chunk, q));
  }
  out.value = median(out.values);
  return out;
}

std::vector<Rate> chunk_rates(const std::string& name, unsigned threads,
                              const std::vector<Interval>& intervals, std::size_t chunks) {
  std::vector<Rate> rates;
  chunks = std::max<std::size_t>(1, std::min(chunks, intervals.size()));
  for (std::size_t c = 0; c < chunks; ++c) {
    Rate rate;
    rate.name = name + "#" + std::to_string(c);
    rate.threads = threads;
    for (std::size_t i = intervals.size() * c / chunks; i < intervals.size() * (c + 1) / chunks;
         ++i) {
      rate.work += intervals[i].work;
      rate.wall_s += intervals[i].wall_s;
      rate.cpu_s += intervals[i].cpu_s;
    }
    rates.push_back(rate);
  }
  return rates;
}

double median_rate(const std::vector<Rate>& rates) {
  std::vector<double> values;
  for (const Rate& rate : rates) values.push_back(rate.value());
  return median(values);
}

void RunResult::set_end_to_end(double setup_s, const std::vector<double>& sample_us,
                               double tail_q, std::size_t chunks, std::vector<Rate> chunk_rates) {
  const Chunked p50 = chunked_quantile(sample_us, 0.5, chunks);
  const Chunked tail = chunked_quantile(sample_us, tail_q, chunks);
  set("setup_s", setup_s, "s");
  set("p50_us", p50.value, "us");
  set("tail_us", tail.value, "us");
  set("throughput_per_s", median_rate(chunk_rates), "1/s");
  percentiles.push_back({"p50_us", 0.5, sample_us.size(), p50});
  percentiles.push_back({"tail_us", tail_q, sample_us.size(), tail});
  if (tail.min_beyond < 10) {
    fail("a chunk holds fewer than 10 samples beyond p" + std::to_string(tail_q * 100));
  }
  rates = std::move(chunk_rates);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
