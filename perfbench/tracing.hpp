// Measurement from outside the library: forwarding wrappers around the
// RoutingAlgorithm and TrafficPattern interfaces, a span log for coarse
// phases, aggregate statistics for hot calls, and progress marks that split
// Simulator::run into pieces of simulated time.
//
// The wrappers forward every virtual unchanged, so a network built on them
// produces a SimResult bit-identical to one built on the wrapped objects.
// They never look inside the algorithm (no UpDownTable, no Router), so the
// library's internals can be refactored without touching this file.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set size of this process so far (getrusage), in MiB.
double peak_rss_mib();

/// Count, total time and a log2 histogram of one hot call. Hot calls are
/// aggregated, never stored one by one.
struct CallStats {
  /// Bucket b counts calls that took [2^b, 2^(b+1)) ns (bucket 0 also
  /// takes 0 ns); the last bucket is open-ended.
  static constexpr int kBuckets = 40;
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
  std::array<std::int64_t, kBuckets> hist{};

  void add(std::int64_t ns);
  double total_s() const { return static_cast<double>(total_ns) * 1e-9; }
};

/// Coarse spans (setup steps, each reconfigure, Simulator::run), kept in
/// memory in order and written as Chrome trace-event JSON, which Perfetto
/// and chrome://tracing open.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void add(std::string name, std::string category, Clock::time_point begin,
           Clock::time_point end);

  /// Writes the spans plus the hot-call aggregates (under "otherData").
  /// Returns false when the file cannot be written.
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, const CallStats*>>& hot) const;

 private:
  struct Span {
    std::string name;
    std::string category;
    double ts_us;
    double dur_us;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Forwarding RoutingAlgorithm: times attach (with the peak-RSS growth it
/// causes), each reconfigure (one span each) and every route call.
class TracedRouting final : public flexrouter::RoutingAlgorithm {
 public:
  TracedRouting(flexrouter::RoutingAlgorithm& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  int num_vcs() const override { return inner_.num_vcs(); }
  void attach(const flexrouter::Topology& topo,
              const flexrouter::FaultSet& faults) override;
  int reconfigure() override;
  flexrouter::RouteDecision route(
      const flexrouter::RouteContext& ctx) const override;
  bool is_escape_vc(flexrouter::VcId vc) const override {
    return inner_.is_escape_vc(vc);
  }
  int max_path_len() const override { return inner_.max_path_len(); }
  int path_len_class(int path_len) const override {
    return inner_.path_len_class(path_len);
  }

  double attach_s = 0.0;
  double attach_rss_mib = 0.0;
  std::int64_t reconfigure_calls = 0;
  double reconfigure_s = 0.0;
  double reconfigure_max_s = 0.0;
  /// route() is const in the interface; its statistics are not state of
  /// the algorithm.
  mutable CallStats route_stats;

 private:
  flexrouter::RoutingAlgorithm& inner_;
  SpanLog& log_;
};

/// Forwarding TrafficPattern: aggregates every dest() call.
class TracedTraffic final : public flexrouter::TrafficPattern {
 public:
  explicit TracedTraffic(const flexrouter::TrafficPattern& inner)
      : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  flexrouter::NodeId dest(flexrouter::NodeId src,
                          flexrouter::Rng& rng) const override;

  mutable CallStats dest_stats;

 private:
  const flexrouter::TrafficPattern& inner_;
};

/// Forwarding TrafficPattern that stamps the clock at the first dest() call
/// of each `chunk`-cycle slice of simulated time. The offered-load phases
/// call dest() every cycle, so the marks cut Simulator::run into pieces
/// that do identical work in every repetition of one seed. One clock read
/// per slice; every other call only forwards.
class ProgressTraffic final : public flexrouter::TrafficPattern {
 public:
  ProgressTraffic(const flexrouter::TrafficPattern& inner,
                  flexrouter::Cycle chunk)
      : inner_(inner), chunk_(chunk) {}

  /// The simulator whose clock drives the marks; set once it exists.
  void watch(const flexrouter::Simulator& sim) { sim_ = &sim; }

  std::string name() const override { return inner_.name(); }
  flexrouter::NodeId dest(flexrouter::NodeId src,
                          flexrouter::Rng& rng) const override {
    if (sim_ != nullptr && sim_->now() >= next_) {
      marks.push_back(Clock::now());
      next_ = (sim_->now() / chunk_ + 1) * chunk_;
    }
    return inner_.dest(src, rng);
  }

  mutable std::vector<Clock::time_point> marks;

 private:
  const flexrouter::TrafficPattern& inner_;
  flexrouter::Cycle chunk_;
  const flexrouter::Simulator* sim_ = nullptr;
  mutable flexrouter::Cycle next_ = 0;
};

}  // namespace perfbench
