// Host-clock attribution of EdgeISPipeline::process() by layer.
//
// The pipeline already emits sim-clock stage events on its mobile track
// (frame, extract / klt_track, track, transfer, cfrs.decide, encode,
// render). HostStageSink observes them through rt::Tracer::EventSink and
// stamps each with the host's steady clock: the host interval since the
// previous stamp is charged to the layer of the event that closes it.
// Within one process() call the intervals tile the span from the "frame"
// begin event to its end event, so the per-layer sums add up to the
// process time the sink saw (HostStageSink::process_ms) by construction.
//
// Events of the session's other tracks (ledger instants, link transfers,
// edge spans) close intervals only before the frame's front-end stage:
// that prologue is the ledger servicing process() does first (response
// delivery, timeouts, retransmissions, probes) and is charged to
// Layer::kLedger. After the front end they are ignored, so the work they
// interleave with is charged to the next mobile-track stage.
//
// Nothing here feeds back into the simulation; the sink only reads events.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "runtime/trace.hpp"

namespace edgebench {

enum class Layer {
  kLedger = 0,  // core.ledger: response delivery, timeouts, retries, probes
  kFeatures,    // features.extract: ORB extract or KLT front end
  kVo,          // vo.track: pose tracking, map update, tracker reset
  kTransfer,    // transfer.mamt: MAMT mask transfer + continuity fallback
  kTransmit,    // core.transmit: CFRS decision, encode, submit (segnet eval)
  kFrameTail,   // core.frame_tail: render queue, bootstrap pair checks
  kOther,       // a mobile-track event this table does not know
  kCount,
};

/// Metric name of a layer's host time ("features.extract_ms", ...).
const char* layer_metric(Layer layer);

/// Layer charged for the interval closed by a mobile-track event `name`
/// (an empty name is a span end, charged to the span it closes).
Layer layer_of_stage(const std::string& name);

/// One host interval charged to a layer (the traced run's Chrome trace).
struct HostSpan {
  int session = 0;
  Layer layer = Layer::kOther;
  double begin_ms = 0.0;  // host ms on the sink's clock
  double end_ms = 0.0;
};

class HostStageSink : public edgeis::rt::Tracer::EventSink {
 public:
  /// Monotonic host clock in milliseconds. The default reads
  /// std::chrono::steady_clock; tests script it.
  using Clock = std::function<double()>;

  explicit HostStageSink(Clock clock = {});

  void on_event(int session, const edgeis::rt::Tracer::Event& e) override;

  /// Added to the tracer's session id in recorded spans: back-to-back
  /// single-client sessions each report session 0 to their own tracer.
  void set_session_offset(int offset) { session_offset_ = offset; }

  /// Host ms charged to each layer, summed over every closed frame.
  [[nodiscard]] double layer_ms(Layer layer) const {
    return layer_ms_[static_cast<std::size_t>(layer)];
  }
  /// Host ms from each "frame" begin to its end, summed.
  [[nodiscard]] double process_ms() const { return process_ms_; }
  /// Frames whose begin and end were both seen.
  [[nodiscard]] int frames_closed() const { return frames_closed_; }
  /// Mobile-track events seen outside any frame, a frame begun inside
  /// another, or a frame still open: the stage events no longer bracket
  /// process(). Zero in a healthy run.
  [[nodiscard]] int protocol_errors() const {
    return protocol_errors_ + (in_frame_ ? 1 : 0);
  }
  [[nodiscard]] const std::vector<HostSpan>& spans() const { return spans_; }

  /// Host extent of each closed frame, "frame" begin to end (the span's
  /// layer is unused).
  [[nodiscard]] const std::vector<HostSpan>& frame_spans() const {
    return frame_spans_;
  }

 private:
  void charge(Layer layer, double now_ms);

  Clock clock_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_ms_{};
  double process_ms_ = 0.0;
  int frames_closed_ = 0;
  int protocol_errors_ = 0;
  int session_offset_ = 0;

  // State of the frame in progress (process() calls never overlap: the
  // simulator is single-threaded).
  bool in_frame_ = false;
  bool front_end_seen_ = false;
  int session_ = 0;
  double frame_begin_ms_ = 0.0;
  double last_ms_ = 0.0;
  std::vector<Layer> open_;  // layers of the open mobile-track spans

  std::vector<HostSpan> spans_;
  std::vector<HostSpan> frame_spans_;
};

/// True for an event on a session's mobile pipeline track (pid 1 + 4k,
/// tid 1 — run_fleet's pid stride).
bool is_mobile_track(const edgeis::rt::Tracer::Event& e);

/// Runs the speed probe on every mobile-track "frame" begin event, before
/// passing the event on to `next` (if any): run_fleet owns the frame loop,
/// so its client-frames are reachable only through the tracer's event
/// stream. Probing before forwarding keeps the probe outside the frame a
/// downstream HostStageSink times.
class ProbeSink : public edgeis::rt::Tracer::EventSink {
 public:
  ProbeSink(SpeedProbe& probe, edgeis::rt::Tracer::EventSink* next)
      : probe_(probe), next_(next) {}

  void on_event(int session, const edgeis::rt::Tracer::Event& e) override;

 private:
  SpeedProbe& probe_;
  edgeis::rt::Tracer::EventSink* next_;
};

}  // namespace edgebench
