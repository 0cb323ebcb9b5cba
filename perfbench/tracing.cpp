#include "tracing.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void CallStats::add(std::int64_t ns) {
  ++calls;
  total_ns += ns;
  const auto u = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 1));
  const int b = std::bit_width(u) - 1;
  ++hist[static_cast<std::size_t>(std::min(b, kBuckets - 1))];
}

void SpanLog::add(std::string name, std::string category,
                  Clock::time_point begin, Clock::time_point end) {
  spans_.push_back({std::move(name), std::move(category),
                    seconds_between(origin_, begin) * 1e6,
                    seconds_between(begin, end) * 1e6});
}

bool SpanLog::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, const CallStats*>>& hot) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(15) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
       << json_escape(s.category) << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << s.ts_us << ", \"dur\": " << s.dur_us
       << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "], \"displayTimeUnit\": \"ms\", \"otherData\": {";
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const CallStats& c = *hot[i].second;
    os << (i ? ", " : "") << "\"" << json_escape(hot[i].first)
       << "\": {\"calls\": " << c.calls << ", \"total_ns\": " << c.total_ns
       << ", \"log2_ns_histogram\": [";
    for (int b = 0; b < CallStats::kBuckets; ++b)
      os << (b ? ", " : "") << c.hist[static_cast<std::size_t>(b)];
    os << "]}";
  }
  os << "}}\n";
  os.flush();
  return static_cast<bool>(os);
}

void TracedRouting::attach(const flexrouter::Topology& topo,
                           const flexrouter::FaultSet& faults) {
  const double rss0 = peak_rss_mib();
  const auto t0 = Clock::now();
  inner_.attach(topo, faults);
  const auto t1 = Clock::now();
  attach_s += seconds_between(t0, t1);
  attach_rss_mib += peak_rss_mib() - rss0;
  log_.add("RoutingAlgorithm::attach", "routing", t0, t1);
}

int TracedRouting::reconfigure() {
  const auto t0 = Clock::now();
  const int exchanges = inner_.reconfigure();
  const auto t1 = Clock::now();
  const double s = seconds_between(t0, t1);
  ++reconfigure_calls;
  reconfigure_s += s;
  reconfigure_max_s = std::max(reconfigure_max_s, s);
  log_.add("RoutingAlgorithm::reconfigure", "routing", t0, t1);
  return exchanges;
}

flexrouter::RouteDecision TracedRouting::route(
    const flexrouter::RouteContext& ctx) const {
  const auto t0 = Clock::now();
  flexrouter::RouteDecision d = inner_.route(ctx);
  route_stats.add(ns_between(t0, Clock::now()));
  return d;
}

flexrouter::NodeId TracedTraffic::dest(flexrouter::NodeId src,
                                       flexrouter::Rng& rng) const {
  const auto t0 = Clock::now();
  const flexrouter::NodeId d = inner_.dest(src, rng);
  dest_stats.add(ns_between(t0, Clock::now()));
  return d;
}

}  // namespace perfbench
