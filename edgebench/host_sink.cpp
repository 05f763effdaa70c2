#include "host_sink.hpp"

#include <chrono>
#include <utility>

namespace edgebench {

namespace {

double steady_now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_metric(Layer layer) {
  switch (layer) {
    case Layer::kLedger: return "core.ledger_ms";
    case Layer::kFeatures: return "features.extract_ms";
    case Layer::kVo: return "vo.track_ms";
    case Layer::kTransfer: return "transfer.mamt_ms";
    case Layer::kTransmit: return "core.transmit_ms";
    case Layer::kFrameTail: return "core.frame_tail_ms";
    case Layer::kOther: return "core.other_ms";
    case Layer::kCount: break;
  }
  return "?";
}

Layer layer_of_stage(const std::string& name) {
  if (name == "extract" || name == "klt_track") return Layer::kFeatures;
  if (name == "track" || name == "tracker.reset") return Layer::kVo;
  if (name == "transfer") return Layer::kTransfer;
  if (name == "cfrs.decide" || name == "encode") return Layer::kTransmit;
  if (name == "render") return Layer::kFrameTail;
  return Layer::kOther;
}

bool is_mobile_track(const edgeis::rt::Tracer::Event& e) {
  return e.tid == edgeis::rt::track::kMobile.tid && e.pid % 4 == 1;
}

HostStageSink::HostStageSink(Clock clock)
    : clock_(clock ? std::move(clock) : Clock(steady_now_ms)) {}

void HostStageSink::charge(Layer layer, double now_ms) {
  layer_ms_[static_cast<std::size_t>(layer)] += now_ms - last_ms_;
  if (now_ms > last_ms_) {
    spans_.push_back({session_, layer, last_ms_, now_ms});
  }
  last_ms_ = now_ms;
}

void HostStageSink::on_event(int session,
                             const edgeis::rt::Tracer::Event& e) {
  // Counters (per-frame series the run loop emits after process()) and
  // track metadata carry no stage boundary.
  if (e.ph == 'C' || e.ph == 'M') return;
  const double now_ms = clock_();
  if (!is_mobile_track(e)) {
    if (in_frame_ && !front_end_seen_) charge(Layer::kLedger, now_ms);
    return;
  }
  if (e.ph == 'B' && e.name == "frame") {
    if (in_frame_) ++protocol_errors_;
    in_frame_ = true;
    front_end_seen_ = false;
    session_ = session + session_offset_;
    frame_begin_ms_ = now_ms;
    last_ms_ = now_ms;
    open_.clear();
    return;
  }
  if (!in_frame_) {
    ++protocol_errors_;
    return;
  }
  if (e.ph == 'E') {
    if (open_.empty()) {
      // The frame span itself closes: the tail since the last stage.
      charge(Layer::kFrameTail, now_ms);
      process_ms_ += now_ms - frame_begin_ms_;
      ++frames_closed_;
      frame_spans_.push_back(
          {session_, Layer::kCount, frame_begin_ms_, now_ms});
      in_frame_ = false;
      return;
    }
    charge(open_.back(), now_ms);
    open_.pop_back();
    return;
  }
  const Layer layer = layer_of_stage(e.name);
  if (layer == Layer::kFeatures) front_end_seen_ = true;
  charge(layer, now_ms);
  if (e.ph == 'B') open_.push_back(layer);
}

void ProbeSink::on_event(int session, const edgeis::rt::Tracer::Event& e) {
  if (e.ph == 'B' && e.name == "frame" && is_mobile_track(e)) probe_.sample();
  if (next_ != nullptr) next_->on_event(session, e);
}

}  // namespace edgebench
