// The mobile side's request ledger (DESIGN.md §6): every keyframe,
// init-pair and ping request from its first send to its end (applied,
// failed or abandoned), the downlink half of the full-duplex link, the
// adaptive RTO, streamed-chunk assembly and degraded mode. It submits to
// the real EdgeServer. Whatever needs pipeline state goes back through
// one Handler, called synchronously so trace instants keep their order.
#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "core/edge_server.hpp"
#include "core/pipeline.hpp"
#include "net/rto.hpp"
#include "runtime/stats.hpp"

namespace edgeis::core {

class RequestLedger {
 public:
  /// Pipeline-side effects of ledger events.
  class Handler {
   public:
    /// A new chunk of request `frame_index` was accepted; `masks` holds
    /// every mask received for it so far. `complete` means the set has
    /// closed, and the handler may take the masks. Returns true when the
    /// masks annotated the running tracker (partial-apply accounting).
    virtual bool on_masks(int frame_index, bool is_init,
                          std::vector<mask::InstanceMask>& masks,
                          bool complete, double now_ms) = 0;
    /// An init-pair half was rejected or failed: both halves are void and
    /// bootstrap must pick a fresh pair.
    virtual void on_init_voided() = 0;
    /// The edge's canvas can no longer be trusted to match the mobile
    /// mirror: the delta chain must restart from a full keyframe.
    virtual void on_canvas_broken() = 0;
    /// The link answered without fresh masks (ping recovery, canvas
    /// resync): a full-quality refresh is owed.
    virtual void on_refresh_owed() = 0;

   protected:
    ~Handler() = default;
  };

  /// One missing-chunk retransmission, for tests and benches: the resend
  /// request must be strictly smaller than both the original keyframe
  /// upload and the full response it recovers a part of.
  struct ResendAudit {
    int request_id = 0;
    int chunks_total = 0;
    int chunks_missing = 0;                 // at the time of the resend
    std::size_t original_request_bytes = 0; // the keyframe upload
    std::size_t resend_request_bytes = 0;   // the missing-set request
    std::size_t full_response_bytes = 0;    // all chunks (set on completion)
    std::size_t resent_bytes = 0;           // re-emitted chunks only
    bool completed = false;
  };

  /// Reads the link, fault, RTO, retry and probe settings from `config`.
  /// `edge` and `handler` are non-owning and must outlive the ledger.
  RequestLedger(const PipelineConfig& config, EdgeServer& edge,
                Handler& handler);

  /// Ledger events, RTO counter series and downlink transfers go to
  /// `tracer` (nullptr detaches). Non-owning.
  void set_tracer(rt::Tracer* tracer) { tracer_ = tracer; }

  /// Once per frame, before the front end: account degraded time, move
  /// edge completions onto the downlink, deliver what has landed, expire
  /// deadlines and retransmit, and probe when due. Returns the probe's
  /// uplink bytes (0 when none was sent).
  std::size_t advance(int frame_index, double now_ms);

  /// Send a new request's first attempt. `canvas` rides along with every
  /// retransmission. A fresh request supersedes any listen-only survivors
  /// of a degraded episode: their answer, if it ever comes, would now be
  /// older than this keyframe, so only now do they count as failed.
  void submit(int frame_index, bool is_init, std::size_t bytes,
              segnet::InferenceRequest request,
              EdgeServer::CanvasUpload canvas, double now_ms);

  /// Forget every request and response in flight (tracker reset); RTO
  /// state, counters and the degraded flag survive.
  void clear();

  /// A request (not a ping) still expects an answer and may retransmit.
  [[nodiscard]] bool has_outstanding_request() const;
  /// Full-duplex transmission gate: only a request that has not yet
  /// produced any chunk blocks the next keyframe. Once a response is
  /// streaming down, the uplink is free — the next keyframe overlaps the
  /// remainder of the stream. The pipeline sends only when this is 0.
  [[nodiscard]] int blocking_requests() const;
  /// Entries on the books, pings and listen-only requests included.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] const net::RttEstimator& rto() const { return rto_; }

  /// The record this ledger keeps; the pipeline adds its own frame-side
  /// fields (canvas economy, refreshes, mask staleness) here too.
  [[nodiscard]] rt::LinkHealthStats& health() { return health_; }
  /// The record merged with the link-level fault counters of both
  /// directions and the RTO estimator's end state.
  [[nodiscard]] rt::LinkHealthStats link_health() const;
  [[nodiscard]] const std::vector<ResendAudit>& resend_audits() const {
    return resend_audits_;
  }
  /// Edge inference statistics of every completed request, in order.
  [[nodiscard]] const std::vector<segnet::InferenceStats>& edge_stats()
      const {
    return edge_stats_;
  }

 private:
  struct PendingResponse {
    double deliver_at_ms = 0.0;
    EdgeServer::Response response;
  };

  /// One outstanding request. Kept until its response is matched or every
  /// retry is exhausted; `request` is retained for retransmission.
  struct Entry {
    int request_id = 0;       // frame index; pings use negative ids
    int frame_index = 0;
    bool is_ping = false;
    bool is_init = false;     // an initialization-pair annotation request
    bool dead = false;        // failed, pending removal
    // Listen-only: degraded mode stopped retransmitting it and it no
    // longer blocks the gate, but a late response still completes it.
    // Purged (failed) when a new request supersedes it.
    bool abandoned = false;
    int attempt = 0;          // 0 = first send
    double sent_ms = 0.0;     // uplink entry time of the live attempt
    double deadline_ms = 0.0; // response deadline of the live attempt
    double resend_at_ms = -1.0;  // >= 0: waiting out the backoff
    std::size_t bytes = 0;
    segnet::InferenceRequest request{};
    // Canvas payload, re-submitted with every retransmission (the edge
    // canvas treats a same-epoch re-apply as a duplicate).
    EdgeServer::CanvasUpload canvas{};
    // Streamed response, one chunk per instance: each chunk extends the
    // deadline; a deadline on a partial set resends only what is missing.
    int chunks_expected = 0;   // 0 until the first chunk arrives
    int chunks_received = 0;
    // Chunk count at the previous deadline expiry: a timeout that follows
    // fresh chunks earns another resend round even past max_retries.
    int chunks_at_last_timeout = 0;
    std::vector<bool> chunk_have{};
    std::vector<mask::InstanceMask> arrived_masks{};  // cumulative
    segnet::InferenceStats stats{};      // carried by every chunk
    std::size_t response_bytes = 0;      // distinct chunk payloads so far
    std::size_t resent_bytes = 0;        // re-emitted chunk payloads
    int resend_audit = -1;  // index into resend_audits_, -1 = none
    [[nodiscard]] bool has_canvas() const {
      return !std::holds_alternative<std::monostate>(canvas);
    }
  };

  void deliver_due_responses(double now_ms);
  /// A chunk of `*it` arrived: record it, hand it to the pipeline, and
  /// complete the entry when the set closes.
  void accept_chunk(std::vector<Entry>::iterator it,
                    EdgeServer::Response& resp, double now_ms);
  /// Expire attempts, schedule/execute retransmissions, enter degraded
  /// mode after enough consecutive timeouts.
  void service(double now_ms);
  /// Put one attempt of `e` on the uplink and stamp its deadline.
  void send_attempt(Entry& e, double now_ms);
  void queue_response_with_faults(EdgeServer::Response r);
  /// Drop both init-pair halves and tell the pipeline.
  void void_init_pair();
  /// One instant on the ledger track; no-op without a tracer.
  void trace(const char* name, double now_ms, rt::TraceArgs args) const;
  /// Emit the RTT-estimator state as counter series on the ledger track.
  /// No-op without a tracer.
  void trace_rto_counters(double now_ms) const;

  PipelineConfig config_;
  EdgeServer& edge_;
  Handler& handler_;
  rt::Tracer* tracer_ = nullptr;  // non-owning; null = tracing off

  std::vector<PendingResponse> pending_;
  // Downlink direction of the full-duplex pair (the uplink queue lives in
  // the edge server, beside the uplink fault injector).
  net::FaultInjector downlink_faults_;
  net::SendQueue downlink_queue_;
  // Adaptive per-attempt deadlines: Jacobson/Karels RTT estimator seeded
  // from the link profile, fed by completed requests and ping probes.
  net::RttEstimator rto_;
  std::vector<Entry> entries_;
  std::vector<ResendAudit> resend_audits_;
  std::vector<segnet::InferenceStats> edge_stats_;
  rt::LinkHealthStats health_;
  bool degraded_ = false;
  int next_ping_id_ = -1;
  int last_probe_frame_ = -1000000;
  double prev_frame_ms_ = 0.0;
};

}  // namespace edgeis::core
