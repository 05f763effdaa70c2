// The edge node: a single-server FIFO queue in front of the (simulated)
// segmentation model, with compute time scaled by the edge device profile.
// Pipelines submit inference requests stamped with their uplink arrival
// time and poll for responses; downlink latency is applied by the caller.
//
// Four submission surfaces remain:
//  - `submit`: the baselines' half-duplex path, one monolithic response
//    per request.
//  - `submit_keyframe`: edgeIS's full-duplex keyframe upload. The request
//    is admitted through the caller-visible uplink SendQueue and answered
//    with one response *chunk per finished instance mask*, in mask-head
//    completion order, so the mobile side can apply whatever arrived by
//    its frame deadline. An optional canvas payload (full seed or delta)
//    updates this session's reconstruction canvas first.
//  - `submit_resend`: re-emit only the chunks a partial receiver is
//    missing, from the result cache, without re-running inference.
//  - `submit_ping`: a liveness probe for degraded-mode recovery.
//
// For multi-client fleets, any number of servers (one per client session:
// its own ledger state, result cache and fault script) can attach to one
// shared EdgeGpu. The GPU front-ends the keyframe surface with an
// admission gate (bounded queue, explicit busy responses) and fuses
// concurrent keyframes into batched CIIA passes, collected round-robin
// across sessions. A fleet of one is bit-identical to the private path.
#pragma once

#include <deque>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "encoding/canvas.hpp"
#include "mask/mask.hpp"
#include "net/faults.hpp"
#include "net/send_queue.hpp"
#include "runtime/rng.hpp"
#include "runtime/trace.hpp"
#include "segnet/model.hpp"
#include "sim/device.hpp"

namespace edgeis::core {

class EdgeGpu;

class EdgeServer {
 public:
  /// `uplink_faults` (default: none) is consulted for every arriving
  /// message, so every pipeline that talks to this server — edgeIS and the
  /// baselines alike — faces the same uplink behaviour. `uplink_queue`
  /// (used by every surface except `submit`) models the mobile side's
  /// transmission-module serializer: messages admitted while an earlier
  /// one is still going onto the wire wait head-of-line.
  EdgeServer(segnet::ModelProfile model, sim::DeviceProfile device,
             rt::Rng rng, net::FaultInjector uplink_faults = {},
             net::SendQueue uplink_queue = {})
      : model_(std::move(model), rng),
        device_(std::move(device)),
        uplink_faults_(std::move(uplink_faults)),
        uplink_queue_(std::move(uplink_queue)) {}

  struct Response {
    int frame_index = 0;
    double ready_ms = 0.0;  // completion time at the server
    std::vector<mask::InstanceMask> masks;
    segnet::InferenceStats stats;
    std::size_t payload_bytes = 0;  // serialized contour payload size
    bool is_ping = false;           // liveness echo, no inference attached
    /// Echo of the sender's attempt number: lets the ledger apply Karn's
    /// rule exactly and detect spurious retransmissions (an attempt-0
    /// response arriving after attempt 1 was already on the wire).
    int attempt = 0;
    /// Streamed-response framing: chunk `chunk_index` of `chunk_count`.
    /// Monolithic responses and pings are a single chunk (0 of 1), so
    /// completion logic treats both surfaces uniformly.
    int chunk_index = 0;
    int chunk_count = 1;
    bool is_resend = false;  // re-emitted from the result cache
    /// Admission-control pushback from a shared GPU: the request reached
    /// the server but was refused at the gate (no inference ran). On a
    /// ping echo this is the saturated flag — "alive but busy".
    bool rejected = false;
    /// Canvas-delta pushback: the delta's base epoch did not match this
    /// session's canvas (or the canvas was cold), so the edge refused to
    /// reconstruct — no inference ran; the mobile side must fall back to
    /// a full keyframe. Never set on a full-keyframe submission.
    bool canvas_resync = false;
  };

  /// Submit a request entering the uplink at `sent_ms` with a nominal
  /// transmit time of `transmit_ms` (faults may stretch it — a throttle
  /// window multiplies the transmit component, not the send time).
  /// Inference is evaluated immediately (the simulation is deterministic)
  /// but its result is stamped with the queue-aware completion time. A
  /// request lost on the uplink never reaches the server: no inference
  /// runs, no response is produced, and the sender's ledger is left to
  /// time out. `bytes` is the request's wire size, used only for trace
  /// annotation.
  void submit(int frame_index, double sent_ms, double transmit_ms,
              const segnet::InferenceRequest& request, int attempt = 0,
              std::size_t bytes = 0);

  /// A full keyframe that (re)seeds this session's canvas at `epoch`.
  struct CanvasFull {
    enc::EncodedFrame encoded;
    std::uint32_t epoch = 0;
  };
  /// What a keyframe upload carries for the canvas: nothing (full-frame
  /// uplink mode), a full seed, or a delta against the current epoch.
  using CanvasUpload =
      std::variant<std::monostate, CanvasFull, enc::CanvasDelta>;

  /// Full-duplex keyframe submission: the request enters the uplink send
  /// queue at `sent_ms` (head-of-line wait + per-message transit computed
  /// by the queue) and the response comes back as one chunk per instance,
  /// each ready as its mask leaves the mask head. The completed result is
  /// cached for `submit_resend`.
  ///
  /// Every delivered copy first applies `canvas`. A full seed installs
  /// its tile grid unconditionally. A delta is reconstructed from the
  /// canvas (warp + sent tiles), and the model sees the post-apply content
  /// quality; an epoch mismatch or cold canvas produces a small
  /// `canvas_resync` response instead of inference, so the edge never
  /// segments a frame it cannot faithfully reconstruct.
  void submit_keyframe(int frame_index, double sent_ms, std::size_t bytes,
                       const segnet::InferenceRequest& request, int attempt,
                       const CanvasUpload& canvas = {});

  /// Install the canvas policy (tile aging/decay) for this session.
  void configure_canvas(const enc::CanvasOptions& opts) {
    canvas_ = enc::Canvas(opts);
  }
  [[nodiscard]] const enc::Canvas& canvas() const { return canvas_; }

  /// Re-emit only the named chunks of an already computed frame. A resend
  /// re-serializes from the result cache; it never re-infers and never
  /// touches the model queue. Returns false — without touching the link —
  /// when the frame is not cached (e.g. the original request was lost
  /// before compute), in which case the caller should fall back to a full
  /// retransmission.
  bool submit_resend(int frame_index, double sent_ms, std::size_t bytes,
                     const std::vector<int>& chunk_indices, int attempt);

  /// Submit a liveness probe (degraded-mode recovery detection) through
  /// the uplink send queue — a probe can ride behind a keyframe that is
  /// still serializing. The echo bypasses the inference queue; it is
  /// subject to the same uplink faults.
  void submit_ping(int ping_id, double sent_ms);

  /// Attach/detach a span tracer: per-message uplink spans, queue-wait and
  /// staged inference spans (backbone / RPN incl. CIIA anchor placement /
  /// heads incl. RoI pruning). Non-owning.
  void set_tracer(rt::Tracer* tracer) { tracer_ = tracer; }

  /// Attach this server's keyframe surface to a shared multi-client GPU:
  /// subsequent keyframe submissions queue on the GPU (admission gate,
  /// batched dispatch) instead of the private FIFO. The legacy half-duplex
  /// `submit` surface is unaffected. Non-owning; attach before the first
  /// submission. Pass nullptr to detach.
  void attach_gpu(EdgeGpu* gpu);

  /// Pop all responses completed by `now_ms` (server-side; caller adds
  /// downlink latency), ordered by completion time. With a shared GPU
  /// attached this first dispatches every batch whose start time has been
  /// reached, so chunks ready by `now_ms` are never missed.
  std::vector<Response> poll(double now_ms);

  /// Number of requests not yet completed by `now_ms` (including requests
  /// still queued on an attached shared GPU).
  [[nodiscard]] int pending(double now_ms) const;

  [[nodiscard]] double busy_until_ms() const;
  [[nodiscard]] const net::FaultInjector& uplink_faults() const {
    return uplink_faults_;
  }

 private:
  /// One cached chunk of a completed streamed response.
  struct CachedChunk {
    mask::InstanceMask mask;  // empty (0x0) for the instance-less chunk
    int instance_id = -1;
    std::size_t wire_bytes = 0;
    int chunk_index = 0;
  };
  struct CachedResult {
    std::vector<CachedChunk> chunks;
    segnet::InferenceStats stats;
    int chunk_count = 1;
  };

  friend class EdgeGpu;

  void run_inference(int frame_index, double arrive_ms,
                     const segnet::InferenceRequest& request, int attempt,
                     bool streamed);
  /// Hand one arrived keyframe request to the shared GPU when attached,
  /// else to the private FIFO.
  void dispatch(int frame_index, double arrive_ms,
                const segnet::InferenceRequest& request, int attempt);
  /// Route one arrived streamed request through the shared GPU: reject at
  /// the admission gate (before any model evaluation) or evaluate the
  /// model now — per-session RNG draws stay in submission order no matter
  /// how the GPU later batches — and queue the result for dispatch.
  void enqueue_gpu(int frame_index, double arrive_ms,
                   const segnet::InferenceRequest& request, int attempt);
  /// Callback from EdgeGpu when a dispatched batch reaches this session's
  /// element: trace its spans and stream its chunks.
  void emit_batched(int frame_index, int attempt, int width, int height,
                    segnet::InferenceResult&& result, double arrive_ms,
                    double start_ms, double mask_base_ms, int batch_index,
                    int batch_size);
  /// Frame `result` as per-instance protocol chunks, each ready as its
  /// mask leaves the mask head: ready = mask_base + mask_head * (i+1)/n.
  /// Shared by the private path (mask_base = start + first stage) and the
  /// batched path (mask_base = this element's slot in the fused pass), so
  /// batch-of-one output is bitwise-identical to the unbatched stream.
  void emit_streamed_chunks(int frame_index, int attempt, int width,
                            int height, segnet::InferenceResult&& result,
                            double mask_base_ms);
  void trace_inference(int frame_index, double arrive_ms, double start,
                       double compute_ms, const segnet::InferenceRequest& req,
                       const segnet::InferenceResult& result,
                       int attempt) const;

  segnet::SegmentationModel model_;
  sim::DeviceProfile device_;
  net::FaultInjector uplink_faults_;
  net::SendQueue uplink_queue_;
  rt::Tracer* tracer_ = nullptr;
  EdgeGpu* gpu_ = nullptr;  // non-owning; nullptr = private FIFO
  int session_id_ = -1;
  double free_at_ms_ = 0.0;
  std::vector<Response> completed_;
  std::unordered_map<int, CachedResult> result_cache_;
  enc::Canvas canvas_;  // per-session delta-uplink reconstruction state
};

/// Shared-GPU policy knobs. The defaults preserve single-client
/// semantics: an unbounded queue never rejects, and a single session can
/// never form a batch larger than one.
struct GpuConfig {
  /// Admission gate: a keyframe request arriving while this many requests
  /// are already queued (across every session) is refused with an
  /// explicit busy response instead of being admitted. 0 = unbounded.
  int admission_queue_limit = 0;
  /// Largest number of requests fused into one batched CIIA model pass.
  int max_batch = 8;
  /// First-stage (backbone + RPN + box head) cost of batch elements after
  /// the lead one, as a fraction of their standalone cost: the fused pass
  /// amortizes weight loads and activation memory across the batch.
  double batch_first_stage_marginal = 0.55;
};

struct GpuStats {
  int batches = 0;            // model passes dispatched
  int batched_requests = 0;   // requests served across all passes
  int max_batch = 0;          // largest single pass
  int admission_rejects = 0;  // requests refused at the gate
  double busy_ms = 0.0;       // total GPU occupancy
};

/// One GPU serving N client sessions. Each session keeps a FIFO of
/// admitted requests (model already evaluated; only *timing* is decided
/// here); `advance_to` dispatches batches in simulated-time order,
/// collecting at most one request per session round-robin so no client
/// monopolizes the fused pass. Queues are FIFO in submission order — a
/// duplicated uplink copy may arrive out of order and simply waits its
/// turn, exactly as the private-FIFO path serializes it.
class EdgeGpu {
 public:
  explicit EdgeGpu(GpuConfig config = {}) : config_(config) {}

  /// Register a per-client server; returns its session id. Called by
  /// EdgeServer::attach_gpu.
  int register_session(EdgeServer* server);

  /// Dispatch every batch whose start time (GPU free and at least one
  /// session head arrived) has been reached by `now_ms`. Lazy: driven
  /// from EdgeServer::poll, which every client calls each frame in
  /// global sim-time order.
  void advance_to(double now_ms);

  [[nodiscard]] bool saturated() const {
    return config_.admission_queue_limit > 0 &&
           queued_ >= config_.admission_queue_limit;
  }
  [[nodiscard]] int queued() const { return queued_; }
  [[nodiscard]] int queued_for(int session) const {
    return static_cast<int>(
        sessions_[static_cast<std::size_t>(session)].queue.size());
  }
  [[nodiscard]] double free_at_ms() const { return free_at_ms_; }
  [[nodiscard]] const GpuStats& stats() const { return stats_; }
  [[nodiscard]] const GpuConfig& config() const { return config_; }

 private:
  friend class EdgeServer;

  struct Pending {
    int frame_index = 0;
    int attempt = 0;
    double arrive_ms = 0.0;
    int width = 0;
    int height = 0;
    segnet::InferenceResult result;  // evaluated at admission
  };
  struct Session {
    EdgeServer* server = nullptr;
    std::deque<Pending> queue;  // FIFO in submission order
  };

  void admit(int session, Pending&& item);
  void record_reject() { ++stats_.admission_rejects; }

  GpuConfig config_;
  std::vector<Session> sessions_;
  int queued_ = 0;             // across all sessions (gate variable)
  double free_at_ms_ = 0.0;
  std::size_t rr_start_ = 0;   // rotating batch-collection origin
  GpuStats stats_;
};

/// Approximate serialized size of a mask set shipped back to the mobile
/// device as labeled contour vertex lists (Section VI-A uses Boost
/// serialization for "information such as vertices of the contour").
std::size_t mask_payload_bytes(const std::vector<mask::InstanceMask>& masks);

}  // namespace edgeis::core
