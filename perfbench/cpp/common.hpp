// Shared machinery of the perfbench program: wall clocks, seeded input
// derivation, the in-memory span tracer, sample statistics, wall-clock rates
// and the result a workload hands back to main().
//
// Every timing is std::chrono::steady_clock wall time. Every rate is work
// divided by a wall interval (Rate below) — never by CPU time, which
// overstates any phase that runs on more than one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Thread count of every pool the benchmark configures (campaign jobs, server
// workers, collector workers, simulator jobs). Never 0 = "all cores".
inline constexpr unsigned kPoolThreads = 2;

// splitmix64 finalizer over (a, b): derives per-sample seeds and input
// choices from the workload seed, so one seed always gives the same inputs.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;

// Process CPU time (all threads), seconds. Recorded beside each rate's wall
// interval so the wall-clock discipline test can tell the two apart.
[[nodiscard]] double process_cpu_seconds();

// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;   // Chrome trace-event JSON (traced runs)
  std::string report_path;  // detailed run report (JSON)
  std::string scratch_dir;  // where a workload may write temporary files
};

// --- tracing ----------------------------------------------------------------

// Spans recorded from the benchmark's own calls into each module's public
// functions. A span's name is "<layer>.<what>"; its layer is the part before
// the first dot. Roots are "<workload>.sample" (one per end-to-end sample) or
// "replay" (extra public calls a traced run makes only to time one layer;
// they are kept out of the end-to-end time). Spans of one sample share its
// id. Aggregates (count, total, self time) are folded in as spans end; the
// raw spans are kept in memory up to a cap and written out at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void begin(const char* name, std::uint64_t sample);
  void end();

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;  // summed duration
  };
  // Per span name.
  [[nodiscard]] const std::map<std::string, Totals>& totals() const noexcept { return totals_; }
  [[nodiscard]] double mean_s(const std::string& name) const;
  // Sum of layer self time inside "<workload>.sample" roots over the sum of
  // their durations; roots' own self time (gaps between layer calls) is the
  // uncovered part.
  [[nodiscard]] double coverage(const std::string& workload) const;
  // Sum of "<workload>.sample" root durations.
  [[nodiscard]] double sample_total_s(const std::string& workload) const;

  // Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    std::string name;
    Clock::time_point start;
    double child_s = 0;
    std::int64_t parent = -1;
    std::uint64_t sample = 0;
    std::int64_t id = 0;
  };
  struct Stored {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    std::uint64_t sample = 0;
  };
  static constexpr std::size_t kMaxStored = 200'000;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::uint64_t dropped_ = 0;
  std::int64_t next_id_ = 0;
  std::map<std::string, Totals> totals_;
  // Self time per (root name, layer) — for coverage.
  std::map<std::string, std::map<std::string, double>> layer_self_;
};

// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t sample = 0) : tracer_(tracer) {
    if (tracer_.enabled()) tracer_.begin(name, sample);
  }
  ~Span() {
    if (tracer_.enabled()) tracer_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

// --- statistics ---------------------------------------------------------------

// Linear-interpolated quantile of unsorted samples (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

// Samples strictly above the q-quantile — the guide asks for at least ten
// beyond the top percentile a run reports.
[[nodiscard]] std::size_t beyond(const std::vector<double>& samples, double q);

// Work done over a wall interval. value() is the only way a rate is formed.
struct Rate {
  std::string name;
  double work = 0;
  double wall_s = 0;
  double cpu_s = 0;      // process CPU over the same interval (reported, unused)
  unsigned threads = 1;  // pool threads working during the interval
  [[nodiscard]] double value() const { return wall_s > 0 ? work / wall_s : 0; }
};

// One timed stretch of work: a wall interval and the process CPU spent in it.
struct Interval {
  double work = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

class IntervalTimer {
 public:
  IntervalTimer() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  [[nodiscard]] Interval stop(double work) const {
    const double wall = seconds_between(wall0_, Clock::now());
    return Interval{work, wall, process_cpu_seconds() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

// Runs are cut into a few contiguous chunks and each end-to-end figure is
// the median over chunks of the chunk's own figure, so a burst of outside
// load during one chunk moves one chunk's figure, not the reported one.
struct Chunked {
  double value = 0;         // median over chunks
  std::size_t chunks = 0;
  std::size_t per_chunk = 0;   // samples in the smallest chunk
  std::size_t min_beyond = 0;  // fewest samples above the quantile in a chunk
  std::vector<double> values;  // each chunk's own figure, in time order
};

// How many chunks `samples` samples make when every chunk needs at least
// `per_chunk`: at least 3, more as the run gets longer.
[[nodiscard]] inline std::size_t chunk_count(std::size_t samples, std::size_t per_chunk) {
  return samples / per_chunk < 3 ? 3 : samples / per_chunk;
}

// Median over chunks of each chunk's q-quantile of time-ordered samples.
[[nodiscard]] Chunked chunked_quantile(const std::vector<double>& samples, double q,
                                       std::size_t chunks);
// One rate per chunk of time-ordered intervals.
[[nodiscard]] std::vector<Rate> chunk_rates(const std::string& name, unsigned threads,
                                            const std::vector<Interval>& intervals,
                                            std::size_t chunks);
[[nodiscard]] double median_rate(const std::vector<Rate>& rates);

// What a workload hands back. `metrics` are the end-to-end metrics (untraced
// runs) or the per-layer metrics (traced runs), by name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};

struct Percentile {
  std::string metric;
  double q = 0;
  std::size_t samples = 0;  // in the whole run
  Chunked chunked;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // empty == correct
  std::map<std::string, Metric> metrics;
  std::vector<Percentile> percentiles;
  std::vector<Rate> rates;
  std::map<std::string, double> info;  // extra numbers for the report

  void fail(std::string why) { gate_failures.push_back(std::move(why)); }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Sets the end-to-end metrics every workload reports from its samples
  // (time-ordered, microseconds) and its chunk rates.
  void set_end_to_end(double setup_s, const std::vector<double>& sample_us, double tail_q,
                      std::size_t chunks, std::vector<Rate> chunk_rates);
};

// Times `setup` `repeats` times and returns the median duration in seconds;
// the state built by the last repetition is what the run uses.
template <class Fn>
double median_setup_seconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

// Minimal JSON string escaping for names and messages.
[[nodiscard]] std::string json_escape(const std::string& text);

// Workload entry points.
RunResult run_derive_cold(const Options& options, Tracer& tracer);
RunResult run_app_hardened(const Options& options, Tracer& tracer);
RunResult run_serve_warm(const Options& options, Tracer& tracer);
RunResult run_fleet_sim(const Options& options, Tracer& tracer);

}  // namespace perfbench
