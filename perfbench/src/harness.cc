#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double v : samples) {
    total += v;
  }
  return total;
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Sum(samples) / static_cast<double>(samples.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (index + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFULL;
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& what) {
  if (errors_.size() < 20) {
    errors_.push_back(what);
  }
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i > 0 ? ", " : "");
    AppendJsonString(out, errors_[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ");
    first = false;
    AppendJsonString(out, name);
    out << ": {\"value\": " << (std::isfinite(metric.value) ? metric.value : 0.0)
        << ", \"unit\": ";
    AppendJsonString(out, metric.unit);
    out << ", \"samples\": " << metric.samples << "}";
  }
  out << "}}";
  return out.str();
}

int64_t SpanLog::Add(const char* name, int64_t parent, const std::string& trace,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) {
    return 0;
  }
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(Span{name, id, parent, trace, ns(start), ns(end)});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    std::ostringstream line;
    line << "{\"name\": ";
    AppendJsonString(line, span.name);
    line << ", \"id\": " << span.id << ", \"parent\": " << span.parent << ", \"trace\": ";
    AppendJsonString(line, span.trace);
    line << ", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns << "}\n";
    out << line.str();
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
