// Outside-in timing of the protocol layer.
//
// TimedSampler decorates the PeerSampler a ProtocolFactory builds and
// times every entry point the runtime and the recorders call: init,
// round, on_message (also split by Message::name()), and the read side
// (sample / out_neighbors / usable_neighbors / ratio_estimate). Every
// 16th delivered message is additionally probed with wire_size(), timed
// outside the on_message span. The decorator forwards each call
// unchanged, so a traced World replays the untraced one event for event;
// the benchmark proves that with a digest.
//
// Spans are accumulated into one Tracer without synchronization: the
// traced World always runs on the sequential engine, so the spans are
// disjoint and their sum is a share of the run's wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pss/protocol.hpp"
#include "runtime/world.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(Clock::time_point t0, Clock::time_point t1) {
    ++calls;
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count();
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns) * 1e-9;
  }
  [[nodiscard]] double mean_ns() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

struct Tracer {
  Span init;
  Span round;
  Span on_message;
  Span read;
  Span wire_size;
  /// on_message split by message type, keyed by the name() literal.
  std::vector<std::pair<const char*, Span>> by_message;
  /// While set, calls are forwarded untimed (the driver's own probes).
  bool paused = false;
  std::uint64_t deliveries = 0;
  std::uint64_t wire_bytes_probed = 0;

  /// Sum of every decorator span.
  [[nodiscard]] double span_seconds() const {
    return init.seconds() + round.seconds() + on_message.seconds() +
           read.seconds() + wire_size.seconds();
  }
  /// Calls and time for the message `name` (merged by text).
  [[nodiscard]] Span message(const std::string& name) const;

  Span& message_span(const char* name);
};

class TimedSampler final : public croupier::pss::PeerSampler {
 public:
  TimedSampler(Context ctx, std::unique_ptr<croupier::pss::PeerSampler> inner,
               Tracer& tracer)
      : PeerSampler(std::move(ctx)),
        inner_(std::move(inner)),
        tracer_(tracer) {}

  void init() override;
  void round() override;
  std::optional<croupier::pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<croupier::net::NodeId> out_neighbors()
      const override;
  [[nodiscard]] std::vector<croupier::net::NodeId> usable_neighbors(
      const AliveFn& alive) const override;
  [[nodiscard]] std::optional<double> ratio_estimate() const override;
  void on_message(croupier::net::NodeId from,
                  const croupier::net::Message& msg) override;

 private:
  std::unique_ptr<croupier::pss::PeerSampler> inner_;
  Tracer& tracer_;
};

/// Wraps `inner` so every sampler it builds is a TimedSampler reporting
/// into `tracer`, which must outlive the factory and every sampler.
[[nodiscard]] croupier::run::ProtocolFactory timed_factory(
    croupier::run::ProtocolFactory inner, Tracer& tracer);

}  // namespace perfbench
