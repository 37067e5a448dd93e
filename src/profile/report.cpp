#include "profile/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "simlib/cerrno.hpp"
#include "xml/archive.hpp"

namespace healers::profile {

std::uint64_t FunctionProfile::errors() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [_, count] : errno_counts) n += count;
  return n;
}

FunctionProfile& FunctionProfile::operator+=(const FunctionProfile& other) {
  if (symbol.empty()) symbol = other.symbol;
  calls += other.calls;
  cycles += other.cycles;
  contained += other.contained;
  for (const auto& [err, count] : other.errno_counts) errno_counts[err] += count;
  return *this;
}

std::uint64_t ProfileReport::total_calls() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.calls;
  return n;
}

std::uint64_t ProfileReport::total_cycles() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.cycles;
  return n;
}

std::uint64_t ProfileReport::total_errors() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.errors();
  return n;
}

const FunctionProfile* ProfileReport::function(const std::string& symbol) const noexcept {
  for (const FunctionProfile& fn : functions) {
    if (fn.symbol == symbol) return &fn;
  }
  return nullptr;
}

ProfileReport build_report(const std::string& process, const std::string& wrapper,
                           const gen::WrapperStats& stats) {
  ProfileReport report;
  report.process = process;
  report.wrapper = wrapper;
  for (const auto& [_, fn] : stats.functions()) {
    if (fn.calls == 0 && fn.cycles == 0 && fn.errno_counts.empty() && fn.contained == 0) {
      continue;  // wrapped but never called: not part of the profile
    }
    FunctionProfile profile;
    profile.symbol = fn.symbol;
    profile.calls = fn.calls;
    profile.cycles = fn.cycles;
    profile.contained = fn.contained;
    profile.errno_counts = fn.errno_counts;
    report.functions.push_back(std::move(profile));
  }
  std::sort(report.functions.begin(), report.functions.end(),
            [](const FunctionProfile& a, const FunctionProfile& b) { return a.symbol < b.symbol; });
  report.global_errnos = stats.global_errnos();
  return report;
}

namespace {

template <class Ar>
void xml_errnos(Ar& ar, std::map<int, std::uint64_t>& counts) {
  ar.each("error", counts, [](auto& ar, int& err, std::uint64_t& count) {
    ar.attr("errno", err);
    ar.check(err >= 0, "errno");
    ar.derived("name", [&] { return simlib::errno_name(err); });
    ar.attr("count", count);
  });
}

}  // namespace

// The <profile> document; its binary twin is fields() in fleet/wire.cpp.
template <class Ar>
void xml_fields(Ar& ar, ProfileReport& report) {
  ar.attr("process", report.process);
  ar.attr("wrapper", report.wrapper);
  ar.derived("total_calls", [&] { return std::to_string(report.total_calls()); });
  ar.derived("total_cycles", [&] { return std::to_string(report.total_cycles()); });
  ar.each("function", report.functions, [](auto& ar, FunctionProfile& fn) {
    ar.required("name", fn.symbol);
    ar.attr("calls", fn.calls);
    ar.attr("cycles", fn.cycles);
    ar.attr_if(fn.contained > 0, "contained", fn.contained);
    xml_errnos(ar, fn.errno_counts);
  });
  ar.child_if(!report.global_errnos.empty(), "errors",
              [&](auto& ar) { xml_errnos(ar, report.global_errnos); });
}

xml::Node to_xml(const ProfileReport& report) { return xml::write("profile", report); }

Result<ProfileReport> from_xml(const xml::Node& node) {
  return xml::read<ProfileReport>(node, "profile");
}

std::string render(const ProfileReport& report) {
  std::ostringstream out;
  const std::uint64_t total_calls = report.total_calls();
  const std::uint64_t total_cycles = report.total_cycles();
  out << "profile report: process '" << report.process << "' (" << report.wrapper << ")\n";
  out << "---------------------------------------------------------------------------\n";
  out << std::left << std::setw(12) << "function" << std::right << std::setw(9) << "calls"
      << std::setw(9) << "%calls" << std::setw(12) << "cycles" << std::setw(9) << "%time"
      << std::setw(8) << "errors" << std::setw(10) << "contained" << "  top errno\n";
  out << "---------------------------------------------------------------------------\n";
  for (const FunctionProfile& fn : report.functions) {
    const double pct_calls =
        total_calls == 0 ? 0.0 : 100.0 * static_cast<double>(fn.calls) / static_cast<double>(total_calls);
    const double pct_time =
        total_cycles == 0 ? 0.0
                          : 100.0 * static_cast<double>(fn.cycles) / static_cast<double>(total_cycles);
    std::string top_errno = "-";
    std::uint64_t top_count = 0;
    for (const auto& [err, count] : fn.errno_counts) {
      if (count > top_count) {
        top_count = count;
        top_errno = simlib::errno_name(err);
      }
    }
    out << std::left << std::setw(12) << fn.symbol << std::right << std::setw(9) << fn.calls
        << std::setw(8) << std::fixed << std::setprecision(1) << pct_calls << "%" << std::setw(12)
        << fn.cycles << std::setw(8) << pct_time << "%" << std::setw(8) << fn.errors()
        << std::setw(10) << fn.contained << "  " << top_errno << "\n";
  }
  out << "---------------------------------------------------------------------------\n";
  out << "errno distribution (causes of errors):\n";
  if (report.global_errnos.empty()) {
    out << "  (no errors recorded)\n";
  } else {
    for (const auto& [err, count] : report.global_errnos) {
      out << "  " << std::left << std::setw(8) << simlib::errno_name(err) << std::right
          << std::setw(8) << count << "  (" << simlib::errno_describe(err) << ")\n";
    }
  }
  return out.str();
}

std::string render_chart(const ProfileReport& report, ChartMetric metric, int width) {
  const auto value_of = [metric](const FunctionProfile& fn) -> std::uint64_t {
    switch (metric) {
      case ChartMetric::kCalls: return fn.calls;
      case ChartMetric::kCycles: return fn.cycles;
      case ChartMetric::kErrors: return fn.errors();
    }
    return 0;
  };
  const char* title = metric == ChartMetric::kCalls
                          ? "calls"
                          : (metric == ChartMetric::kCycles ? "cycles" : "errors");

  std::uint64_t max_value = 0;
  for (const FunctionProfile& fn : report.functions) {
    max_value = std::max(max_value, value_of(fn));
  }

  std::ostringstream out;
  out << title << " per function ('" << report.process << "')\n";
  if (max_value == 0) {
    out << "  (nothing to chart)\n";
    return out.str();
  }
  for (const FunctionProfile& fn : report.functions) {
    const std::uint64_t value = value_of(fn);
    if (value == 0) continue;
    const int bar = std::max<int>(
        1, static_cast<int>(static_cast<double>(value) / static_cast<double>(max_value) *
                            width));
    out << "  " << std::left << std::setw(10) << fn.symbol << " "
        << std::string(static_cast<std::size_t>(bar), '#') << " " << value << "\n";
  }
  return out.str();
}

}  // namespace healers::profile
