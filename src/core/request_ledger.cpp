#include "core/request_ledger.hpp"

#include <algorithm>
#include <cmath>

#include "net/link.hpp"
#include "net/protocol.hpp"

namespace edgeis::core {

RequestLedger::RequestLedger(const PipelineConfig& config, EdgeServer& edge,
                             Handler& handler)
    : config_(config),
      edge_(edge),
      handler_(handler),
      downlink_faults_(config_.faults.downlink,
                       rt::Rng(config_.seed ^ 0xfa02eULL)),
      downlink_queue_(config_.link, rt::Rng(config_.seed ^ 0xd0171ULL)),
      rto_(config_.rto, 2.0 * config_.link.base_latency_ms +
                            config_.rto.initial_compute_guess_ms) {}

std::size_t RequestLedger::advance(int frame_index, double now_ms) {
  if (degraded_) {
    health_.time_in_degraded_ms += now_ms - prev_frame_ms_;
    ++health_.degraded_frames;
  }
  prev_frame_ms_ = now_ms;
  // Drain the edge's completed work into the downlink queue in completion
  // order (the queue's serializer needs admissions in time order), then
  // deliver whatever the downlink has landed by now.
  for (auto& r : edge_.poll(now_ms)) {
    queue_response_with_faults(std::move(r));
  }
  deliver_due_responses(now_ms);
  service(now_ms);
  // Probe for recovery with a 64-byte ping, on a fixed cadence that is the
  // only gate (a lost probe must not block the next for its inflated RTO
  // lifetime). Probing starts before degraded mode commits — two
  // unanswered deadlines already make the link suspect — and rides the
  // uplink queue behind any keyframe still serializing.
  const bool suspect = degraded_ || rto_.backoff() >= 2;
  if (!suspect ||
      frame_index - last_probe_frame_ < config_.probe_interval_frames) {
    return 0;
  }
  Entry ping{.request_id = next_ping_id_--, .is_ping = true, .bytes = 64};
  ++health_.probes_sent;
  trace("degraded.probe", now_ms, {{"request", ping.request_id}});
  send_attempt(ping, now_ms);
  entries_.push_back(std::move(ping));
  last_probe_frame_ = frame_index;
  return 64;
}

void RequestLedger::submit(int frame_index, bool is_init, std::size_t bytes,
                           segnet::InferenceRequest request,
                           EdgeServer::CanvasUpload canvas, double now_ms) {
  std::erase_if(entries_, [&](const Entry& e) {
    if (!e.abandoned) return false;
    ++health_.requests_failed;
    trace("superseded", now_ms, {{"request", e.request_id}});
    return true;
  });
  Entry e{.request_id = frame_index,
          .frame_index = frame_index,
          .is_init = is_init,
          .bytes = bytes,
          .request = std::move(request),
          .canvas = std::move(canvas)};
  ++health_.requests_sent;
  send_attempt(e, now_ms);
  entries_.push_back(std::move(e));
}

void RequestLedger::clear() {
  pending_.clear();
  entries_.clear();
}

void RequestLedger::deliver_due_responses(double now_ms) {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->deliver_at_ms > now_ms) {
      ++it;
      continue;
    }
    EdgeServer::Response resp = std::move(it->response);
    it = pending_.erase(it);

    // Match the response to its ledger entry. Unmatched deliveries are
    // duplicates or answers to abandoned requests: ignore them wholesale —
    // annotating an ancient keyframe would only corrupt the tracker.
    const auto entry = std::find_if(
        entries_.begin(), entries_.end(), [&](const Entry& e) {
          return !e.dead && e.request_id == resp.frame_index &&
                 e.is_ping == resp.is_ping;
        });
    if (entry == entries_.end()) {
      ++health_.stale_responses;
      trace("stale_response", now_ms,
            {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      continue;
    }
    // Admission pushback from a shared GPU. The link is fine, so a reject
    // neither exits degraded mode nor feeds the estimator, but it inflates
    // the backoff like a loss: a client hammering a saturated gate parks
    // itself in degraded mode until a clean probe proves the queue
    // drained. A busy ping echo is that probe failing.
    if (resp.rejected) {
      if (resp.is_ping) {
        ++health_.busy_pings;
        trace("ping_busy", now_ms, {{"request", resp.frame_index}});
        entries_.erase(entry);
        continue;
      }
      ++health_.admission_rejects;
      rto_.on_timeout();
      trace("admission_reject", now_ms,
            {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      trace_rto_counters(now_ms);
      const bool was_init = entry->is_init;
      entries_.erase(entry);
      // A rejected init-pair half voids the pair (both halves must be
      // annotated); bootstrap restarts once the gate opens.
      if (was_init) void_init_pair();
      continue;
    }
    // Canvas-delta pushback: the edge refused to reconstruct (epoch
    // mismatch or cold canvas). The link answered — clear the timeout
    // inflation — but the canvas chain is broken: the encoder restarts it
    // and the edge is owed a full keyframe. Never an init request
    // (bootstrap uploads are always full keyframes).
    if (resp.canvas_resync) {
      ++health_.canvas_resyncs;
      rto_.reset_backoff();
      handler_.on_canvas_broken();
      handler_.on_refresh_owed();
      trace("canvas_resync", now_ms,
            {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      entries_.erase(entry);
      continue;
    }
    // Feed the RTT estimator. Karn's rule: only chunks of a clean first
    // attempt are sampled, each an independent observation of the round
    // trip; resent chunks and retransmitted requests are ambiguous. An
    // attempt-0 response overtaken by a retransmission proves the
    // deadline fired on a slow response: a spurious retransmission.
    if (resp.attempt < entry->attempt) {
      ++health_.spurious_retransmissions;
      trace("spurious_retransmission", now_ms,
            {{"request", resp.frame_index}});
    }
    if (entry->attempt == 0 && !resp.is_resend) {
      rto_.sample(now_ms - entry->sent_ms);
      trace_rto_counters(now_ms);
    } else {
      // Unsampleable, but the link answered: drop the timeout inflation,
      // or a stream losing one chunk per round would back off into
      // degraded mode while chunks are demonstrably arriving.
      rto_.reset_backoff();
    }
    if (degraded_) {
      // Any delivery proves the link is back. A ping carries no masks, so
      // recovery via ping owes the tracker a full-quality refresh; an
      // inference chunk is itself fresh annotation.
      degraded_ = false;
      if (resp.is_ping) handler_.on_refresh_owed();
      trace("degraded.exit", now_ms, {{"via_ping", resp.is_ping}});
    }
    if (resp.is_ping) {
      trace("ping_response", now_ms,
            {{"request", resp.frame_index},
             {"attempt", resp.attempt},
             {"rtt_ms", now_ms - entry->sent_ms}});
      entries_.erase(entry);
      ++health_.responses_received;
      continue;
    }
    accept_chunk(entry, resp, now_ms);
  }
}

void RequestLedger::accept_chunk(std::vector<Entry>::iterator it,
                                 EdgeServer::Response& resp, double now_ms) {
  Entry& e = *it;
  if (e.chunks_expected == 0) {
    e.chunks_expected = std::max(resp.chunk_count, 1);
    e.chunk_have.assign(static_cast<std::size_t>(e.chunks_expected), false);
  }
  if (resp.chunk_index < 0 || resp.chunk_index >= e.chunks_expected ||
      e.chunk_have[static_cast<std::size_t>(resp.chunk_index)]) {
    // Downlink duplicate or a resend racing the original: idempotent.
    ++health_.duplicate_chunks;
    trace("duplicate_chunk", now_ms,
          {{"request", resp.frame_index}, {"chunk", resp.chunk_index}});
    return;
  }
  e.chunk_have[static_cast<std::size_t>(resp.chunk_index)] = true;
  ++e.chunks_received;
  ++health_.chunks_received;
  e.stats = resp.stats;
  e.response_bytes += resp.payload_bytes;
  if (resp.is_resend) e.resent_bytes += resp.payload_bytes;
  for (auto& m : resp.masks) e.arrived_masks.push_back(std::move(m));
  const bool complete = e.chunks_received == e.chunks_expected;
  trace("chunk", now_ms,
        {{"request", resp.frame_index},
         {"attempt", resp.attempt},
         {"chunk", resp.chunk_index},
         {"received", e.chunks_received},
         {"expected", e.chunks_expected},
         {"resend", resp.is_resend},
         {"bytes", resp.payload_bytes}});

  // Hand over whatever has arrived: a partial set still annotates the
  // keyframe and refreshes the fallback cache, so the renderer never waits
  // for the stream's tail (the point of streaming the response at all).
  const bool applied = handler_.on_masks(e.frame_index, e.is_init,
                                         e.arrived_masks, complete, now_ms);
  if (!complete) {
    if (applied) {
      ++health_.partial_applies;
      trace("partial_apply", now_ms,
            {{"frame", e.frame_index},
             {"received", e.chunks_received},
             {"expected", e.chunks_expected}});
    }
    // Streaming progress must not time out between chunks: every applied
    // chunk renews the entry's deadline and cancels a pending backoff.
    e.deadline_ms = now_ms + rto_.rto_ms();
    e.resend_at_ms = -1.0;
    return;
  }

  if (e.resend_audit >= 0) {
    auto& audit = resend_audits_[static_cast<std::size_t>(e.resend_audit)];
    audit.full_response_bytes = e.response_bytes;
    audit.resent_bytes = e.resent_bytes;
    audit.completed = true;
  }
  trace("response", now_ms,
        {{"request", e.request_id},
         {"attempt", resp.attempt},
         {"rtt_ms", now_ms - e.sent_ms},
         {"chunks", e.chunks_expected},
         {"bytes", e.response_bytes}});
  edge_stats_.push_back(e.stats);
  entries_.erase(it);
  ++health_.responses_received;
}

void RequestLedger::send_attempt(Entry& e, double now_ms) {
  if (e.is_ping) {
    trace("send", now_ms,
          {{"request", e.request_id},
           {"attempt", e.attempt},
           {"bytes", e.bytes},
           {"ping", true}});
    edge_.submit_ping(e.request_id, now_ms);
  } else if (e.chunks_received > 0 && e.chunks_received < e.chunks_expected) {
    // Partial response on the books: retransmit the *missing chunk set*,
    // not the keyframe. The request names chunks by index (the receiver
    // never learned the instance ids of chunks that didn't arrive); the
    // edge answers from its result cache without re-running inference.
    net::ResendRequestMessage req;
    req.frame_index = e.frame_index;
    std::vector<int>& missing = req.chunk_indices;
    for (int i = 0; i < e.chunks_expected; ++i) {
      if (!e.chunk_have[static_cast<std::size_t>(i)]) missing.push_back(i);
    }
    const std::size_t bytes = net::Codec::wire_bytes(req);
    ++health_.resend_requests;
    trace("resend_missing", now_ms,
          {{"request", e.request_id},
           {"attempt", e.attempt},
           {"missing", missing.size()},
           {"of", e.chunks_expected},
           {"bytes", bytes}});
    e.resend_audit = static_cast<int>(resend_audits_.size());
    resend_audits_.push_back(
        {.request_id = e.request_id,
         .chunks_total = e.chunks_expected,
         .chunks_missing = static_cast<int>(missing.size()),
         .original_request_bytes = e.bytes,
         .resend_request_bytes = bytes});
    if (!edge_.submit_resend(e.frame_index, now_ms, bytes, missing,
                             e.attempt)) {
      // Result cache miss (should not happen once a chunk arrived):
      // fall back to a full retransmission, without a canvas payload.
      edge_.submit_keyframe(e.frame_index, now_ms, e.bytes, e.request,
                            e.attempt);
    }
  } else {
    if (tracer_ != nullptr) {
      rt::TraceArgs args = {{"request", e.request_id},
                            {"attempt", e.attempt},
                            {"bytes", e.bytes},
                            {"ping", false}};
      if (e.has_canvas()) {
        args.emplace_back("delta",
                          std::holds_alternative<enc::CanvasDelta>(e.canvas));
      }
      tracer_->instant(rt::track::kLedger, "send", now_ms, std::move(args));
    }
    edge_.submit_keyframe(e.frame_index, now_ms, e.bytes, e.request,
                          e.attempt, e.canvas);
  }
  e.sent_ms = now_ms;
  e.deadline_ms = now_ms + rto_.rto_ms();
  e.resend_at_ms = -1.0;
}

void RequestLedger::queue_response_with_faults(EdgeServer::Response r) {
  // The response enters the downlink direction of the full-duplex pair:
  // chunks of one response (and interleaved ping echoes) serialize
  // back-to-back through the queue, each with its own propagation sample
  // and fault fate.
  const auto out = downlink_queue_.enqueue(
      r.ready_ms, std::max<std::size_t>(r.payload_bytes, 1),
      downlink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/false, out.slot.enter_ms,
                      out.slot.transit_ms, r.payload_bytes, out.fate,
                      r.frame_index, r.attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms,
                      r.chunk_count > 1 ? r.chunk_index : -1, r.chunk_count,
                      r.is_resend);
  if (out.fate.drop) return;  // the ledger deadline will notice
  if (out.fate.duplicate) {
    pending_.push_back({out.duplicate_deliver_ms, r});
  }
  pending_.push_back({out.deliver_ms, std::move(r)});
}

void RequestLedger::trace(const char* name, double now_ms,
                          rt::TraceArgs args) const {
  if (tracer_ == nullptr) return;
  tracer_->instant(rt::track::kLedger, name, now_ms, std::move(args));
}

void RequestLedger::trace_rto_counters(double now_ms) const {
  if (tracer_ == nullptr) return;
  tracer_->counter(rt::track::kLedger, "srtt_ms", now_ms, rto_.srtt_ms());
  tracer_->counter(rt::track::kLedger, "rttvar_ms", now_ms,
                   rto_.rttvar_ms());
  tracer_->counter(rt::track::kLedger, "rto_ms", now_ms, rto_.rto_ms());
  tracer_->counter(rt::track::kLedger, "rto_backoff", now_ms,
                   rto_.backoff());
}

void RequestLedger::service(double now_ms) {
  bool init_failed = false;
  for (auto& e : entries_) {
    if (e.dead || e.abandoned) continue;
    if (e.resend_at_ms >= 0.0) {
      if (now_ms >= e.resend_at_ms) {
        ++e.attempt;
        ++health_.retransmissions;
        trace("retransmit", now_ms,
              {{"request", e.request_id}, {"attempt", e.attempt}});
        send_attempt(e, now_ms);
      }
      continue;
    }
    if (now_ms < e.deadline_ms) continue;
    ++health_.attempt_timeouts;
    // Inflate the RTO: the next attempt (of any request) waits longer
    // before concluding loss. Any response deflates it again.
    rto_.on_timeout();
    trace("timeout", now_ms,
          {{"request", e.request_id},
           {"attempt", e.attempt},
           {"ping", e.is_ping}});
    trace_rto_counters(now_ms);
    const bool progressed = e.chunks_received > e.chunks_at_last_timeout;
    e.chunks_at_last_timeout = e.chunks_received;
    if (e.is_ping || (e.attempt >= config_.max_retries && !progressed)) {
      // Pings never retry: the probe cadence replaces them.
      e.dead = true;
      if (!e.is_ping) {
        ++health_.requests_failed;
        // A dead canvas upload may or may not have reached the edge; the
        // mirror can no longer be trusted to match — force a full resync.
        if (e.has_canvas()) handler_.on_canvas_broken();
        if (e.is_init) init_failed = true;
        trace("request_failed", now_ms,
              {{"request", e.request_id}, {"init", e.is_init}});
      }
    } else {
      // exp2 of an unbounded attempt count overflows to inf and schedules
      // the resend past the end of the scenario; clamp to the same bound
      // as the RTO itself.
      e.resend_at_ms =
          now_ms + std::min(config_.retry_backoff_base_ms *
                                std::exp2(std::min(e.attempt, 16)),
                            config_.rto.max_rto_ms);
    }
  }

  if (!degraded_ && rto_.backoff() >= config_.degraded_entry_rto_inflation) {
    degraded_ = true;
    ++health_.degraded_entries;
    trace("degraded.enter", now_ms,
          {{"rto_backoff", rto_.backoff()}, {"outstanding", entries_.size()}});
    // Stop paying the link: outstanding inference requests become
    // listen-only (their uplink cost is sunk, and a merely late response
    // still annotates the tracker and proves the link is back); only the
    // probe cadence touches the radio. Init pairs need both halves, so
    // they are voided outright.
    for (auto& e : entries_) {
      if (e.is_ping || e.dead || e.abandoned) continue;
      if (e.is_init) {
        e.dead = true;
        ++health_.requests_failed;
        init_failed = true;
      } else {
        e.abandoned = true;
        e.resend_at_ms = -1.0;
        // No further retransmissions: whether this canvas upload made it
        // to the edge is unknowable, so the delta chain must restart.
        if (e.has_canvas()) handler_.on_canvas_broken();
        trace("abandon", now_ms,
              {{"request", e.request_id}, {"attempt", e.attempt}});
      }
    }
  }

  std::erase_if(entries_, [](const Entry& e) { return e.dead; });
  if (init_failed) void_init_pair();
}

void RequestLedger::void_init_pair() {
  // An init-pair annotation never arrived: both requests are void, and
  // the pipeline falls back to bootstrap.
  std::erase_if(entries_, [](const Entry& e) { return e.is_init; });
  handler_.on_init_voided();
}

bool RequestLedger::has_outstanding_request() const {
  return std::any_of(entries_.begin(), entries_.end(), [](const Entry& e) {
    return !e.is_ping && !e.dead && !e.abandoned;
  });
}

int RequestLedger::blocking_requests() const {
  return static_cast<int>(
      std::count_if(entries_.begin(), entries_.end(), [](const Entry& e) {
        return !e.is_ping && !e.dead && !e.abandoned &&
               e.chunks_received == 0;
      }));
}

rt::LinkHealthStats RequestLedger::link_health() const {
  rt::LinkHealthStats h = health_;
  const auto& up = edge_.uplink_faults().stats();
  const auto& down = downlink_faults_.stats();
  h.uplink_drops = up.total_lost();
  h.downlink_drops = down.total_lost();
  h.duplicates_injected = up.duplicated + down.duplicated;
  h.reorders_injected = up.reordered + down.reordered;
  h.srtt_ms = rto_.srtt_ms();
  h.rttvar_ms = rto_.rttvar_ms();
  h.rto_ms = rto_.rto_ms();
  h.rtt_samples = rto_.samples();
  h.rto_backoffs = rto_.timeouts();
  return h;
}

}  // namespace edgeis::core
