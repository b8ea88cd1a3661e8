#include "timed_sampler.hpp"

#include <type_traits>

namespace perfbench {

namespace cr = croupier;

namespace {

constexpr std::uint64_t kWireProbeEvery = 16;

/// Times `fn` into `span` unless the tracer is paused.
template <class Fn>
auto timed(Tracer& tracer, Span& span, Fn&& fn) {
  if (tracer.paused) return fn();
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    span.add(t0, Clock::now());
  } else {
    auto out = fn();
    span.add(t0, Clock::now());
    return out;
  }
}

}  // namespace

Span& Tracer::message_span(const char* name) {
  for (auto& [key, span] : by_message) {
    if (key == name) return span;
  }
  return by_message.emplace_back(name, Span{}).second;
}

Span Tracer::message(const std::string& name) const {
  Span total;
  for (const auto& [key, span] : by_message) {
    if (name == key) {
      total.calls += span.calls;
      total.ns += span.ns;
    }
  }
  return total;
}

void TimedSampler::init() {
  timed(tracer_, tracer_.init, [&] { inner_->init(); });
}

void TimedSampler::round() {
  timed(tracer_, tracer_.round, [&] { inner_->round(); });
}

std::optional<cr::pss::NodeDescriptor> TimedSampler::sample() {
  return timed(tracer_, tracer_.read, [&] { return inner_->sample(); });
}

std::vector<cr::net::NodeId> TimedSampler::out_neighbors() const {
  return timed(tracer_, tracer_.read,
               [&] { return inner_->out_neighbors(); });
}

std::vector<cr::net::NodeId> TimedSampler::usable_neighbors(
    const AliveFn& alive) const {
  return timed(tracer_, tracer_.read,
               [&] { return inner_->usable_neighbors(alive); });
}

std::optional<double> TimedSampler::ratio_estimate() const {
  return timed(tracer_, tracer_.read,
               [&] { return inner_->ratio_estimate(); });
}

void TimedSampler::on_message(cr::net::NodeId from,
                              const cr::net::Message& msg) {
  if (tracer_.paused) {
    inner_->on_message(from, msg);
    return;
  }
  const char* name = msg.name();
  const auto t0 = Clock::now();
  inner_->on_message(from, msg);
  const auto t1 = Clock::now();
  tracer_.on_message.add(t0, t1);
  tracer_.message_span(name).add(t0, t1);

  if (++tracer_.deliveries % kWireProbeEvery == 0) {
    const auto w0 = Clock::now();
    tracer_.wire_bytes_probed += msg.wire_size();
    tracer_.wire_size.add(w0, Clock::now());
  }
}

cr::run::ProtocolFactory timed_factory(cr::run::ProtocolFactory inner,
                                       Tracer& tracer) {
  return [inner = std::move(inner), &tracer](cr::pss::PeerSampler::Context ctx)
             -> std::unique_ptr<cr::pss::PeerSampler> {
    // The decorator's own base needs the network/bootstrap pointers; the
    // inner protocol gets the original context, RNG stream included.
    cr::pss::PeerSampler::Context outer = ctx;
    auto sampler = inner(std::move(ctx));
    return std::make_unique<TimedSampler>(std::move(outer), std::move(sampler),
                                          tracer);
  };
}

}  // namespace perfbench
