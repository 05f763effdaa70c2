// RequestLedger (core/request_ledger.hpp) driven on its own against a real
// EdgeServer through scripted fault windows, with a recording handler in
// place of the pipeline. The checks are the ledger invariants:
//  - every request ends applied, failed or abandoned, within max_retries
//    retransmissions plus the extra rounds that chunk progress earns;
//  - at most one blocking request is ever in flight;
//  - the RTO stays within [min_rto_ms, max_rto_ms];
//  - degraded mode is entered during an outage and left on the first
//    delivery after it;
//  - a rejected or timed-out init half voids both halves.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/edge_server.hpp"
#include "core/pipeline.hpp"
#include "core/request_ledger.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "runtime/trace.hpp"

using namespace edgeis;
using namespace edgeis::core;

namespace {

constexpr double kFrameMs = 1000.0 / 30.0;

/// Stands in for the pipeline: records every event, applies nothing.
struct RecordingHandler : RequestLedger::Handler {
  int partial_sets = 0;
  int complete_sets = 0;
  int init_voided = 0;
  int canvas_broken = 0;
  int refresh_owed = 0;

  bool on_masks(int, bool is_init, std::vector<mask::InstanceMask>&,
                bool complete, double) override {
    ++(complete ? complete_sets : partial_sets);
    return !is_init;
  }
  void on_init_voided() override { ++init_voided; }
  void on_canvas_broken() override { ++canvas_broken; }
  void on_refresh_owed() override { ++refresh_owed; }
};

PipelineConfig ledger_config(net::DuplexFaultScript faults,
                             std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.link = net::lte();
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  return cfg;
}

/// One client session: its edge server (seeded as EdgeISPipeline seeds
/// it), the ledger under test and a tracer that records its events.
struct Session {
  explicit Session(PipelineConfig c, EdgeGpu* gpu = nullptr)
      : cfg(std::move(c)),
        edge(cfg.model, cfg.edge, rt::Rng(cfg.seed ^ 0x5e7fULL),
             net::FaultInjector(cfg.faults.uplink,
                                rt::Rng(cfg.seed ^ 0xfa017ULL)),
             net::SendQueue(cfg.link, rt::Rng(cfg.seed ^ 0x5af1ULL))),
        ledger(cfg, edge, handler) {
    if (gpu != nullptr) edge.attach_gpu(gpu);
    ledger.set_tracer(&tracer);
  }

  PipelineConfig cfg;
  EdgeServer edge;
  RecordingHandler handler;
  RequestLedger ledger;
  rt::Tracer tracer;
};

/// A 640x480 request with three rectangular ground-truth objects.
segnet::InferenceRequest sample_request() {
  segnet::InferenceRequest req;
  req.width = 640;
  req.height = 480;
  const mask::Box boxes[] = {
      {40, 60, 200, 220}, {260, 100, 420, 300}, {450, 200, 600, 420}};
  int id = 1;
  for (const auto& b : boxes) {
    segnet::OracleInstance o;
    o.mask = mask::InstanceMask(req.width, req.height);
    for (int y = b.y0; y < b.y1; ++y) {
      for (int x = b.x0; x < b.x1; ++x) o.mask.set(x, y);
    }
    o.mask.instance_id = id;
    o.mask.class_id = id % 3;
    o.box = b;
    o.class_id = id % 3;
    o.instance_id = id++;
    req.oracle.push_back(std::move(o));
  }
  return req;
}

double number_arg(const rt::Tracer::Event& e, const std::string& key) {
  for (const auto& a : e.args) {
    if (a.key == key) return a.number;
  }
  ADD_FAILURE() << e.name << " has no arg " << key;
  return 0.0;
}

/// Frame-by-frame driver in the pipeline's shape: advance the ledger, check
/// the per-frame invariants, then send a keyframe every `every` frames
/// while the transmission gate is open and the link is not given up.
/// After `frames`, keeps advancing without sending until nothing is
/// outstanding (bounded), so every request can reach its end.
void drive(Session& s, int frames, int every) {
  const auto& rto = s.cfg.rto;
  const int limit = frames + 900;
  for (int f = 0; f < limit; ++f) {
    if (f >= frames && !s.ledger.has_outstanding_request()) break;
    const double now = f * kFrameMs;
    s.ledger.advance(f, now);
    ASSERT_LE(s.ledger.blocking_requests(), 1) << "frame " << f;
    ASSERT_GE(s.ledger.rto().rto_ms(), rto.min_rto_ms) << "frame " << f;
    ASSERT_LE(s.ledger.rto().rto_ms(), rto.max_rto_ms) << "frame " << f;
    if (f < frames && f % every == 0 &&
        s.ledger.blocking_requests() == 0 && !s.ledger.degraded()) {
      s.ledger.submit(f, /*is_init=*/false, 24000, sample_request(), {},
                      now);
    }
  }
}

/// Every submitted request reached an end — a completed response, a
/// failure, or listen-only abandonment — and retransmitted at most
/// max_retries times plus once per distinct chunk it received (each extra
/// round must follow fresh chunk progress).
void expect_every_request_ended(const Session& s) {
  std::map<int, int> sends;
  std::map<int, int> retransmits;
  std::map<int, int> chunks;
  std::map<int, std::string> end;
  for (const auto& e : s.tracer.events()) {
    if (e.name == "send" && number_arg(e, "ping") == 0.0 &&
        number_arg(e, "attempt") == 0.0) {
      ++sends[static_cast<int>(number_arg(e, "request"))];
    } else if (e.name == "retransmit") {
      ++retransmits[static_cast<int>(number_arg(e, "request"))];
    } else if (e.name == "chunk") {
      ++chunks[static_cast<int>(number_arg(e, "request"))];
    } else if (e.name == "response" || e.name == "request_failed" ||
               e.name == "abandon") {
      end.try_emplace(static_cast<int>(number_arg(e, "request")), e.name);
    }
  }
  ASSERT_FALSE(sends.empty());
  EXPECT_FALSE(s.ledger.has_outstanding_request());
  for (const auto& [id, n] : sends) {
    EXPECT_EQ(n, 1) << "request " << id << " sent more than once";
    EXPECT_TRUE(end.count(id)) << "request " << id << " never ended";
    EXPECT_LE(retransmits[id], s.cfg.max_retries + chunks[id])
        << "request " << id;
  }
}

}  // namespace

TEST(RequestLedger, CleanLinkAppliesEveryRequest) {
  Session s(ledger_config(net::FaultScript::none(), 3));
  drive(s, 120, 10);
  expect_every_request_ended(s);
  const auto h = s.ledger.link_health();
  EXPECT_GT(h.requests_sent, 3);
  EXPECT_EQ(h.responses_received, h.requests_sent);
  EXPECT_EQ(s.handler.complete_sets, h.requests_sent);
  EXPECT_EQ(h.retransmissions, 0);
  EXPECT_EQ(h.requests_failed, 0);
  EXPECT_EQ(s.ledger.edge_stats().size(),
            static_cast<std::size_t>(h.requests_sent));
  EXPECT_FALSE(s.ledger.has_outstanding_request());
}

TEST(RequestLedger, InvariantsHoldUnderEveryFaultMode) {
  struct Case {
    const char* name;
    net::DuplexFaultScript script;
  };
  net::FaultScript duplicate;
  duplicate.add({0.0, 1e18, net::FaultMode::kDuplicate, 0.5});
  net::FaultScript reorder;
  reorder.add({0.0, 1e18, net::FaultMode::kReorder, 0.5, 400.0});
  const std::vector<Case> cases = {
      {"outage", net::FaultScript::outage(2000.0, 4500.0)},
      {"lossy", net::FaultScript::lossy(0.3)},
      {"duplicate", duplicate},
      {"reorder", reorder},
      {"throttle", net::FaultScript::throttle(1500.0, 4000.0, 25.0)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(seed);
      Session s(ledger_config(c.script, seed));
      drive(s, 240, 8);
      expect_every_request_ended(s);
      const auto h = s.ledger.link_health();
      EXPECT_GE(h.rto_ms, s.cfg.rto.min_rto_ms);
      EXPECT_LE(h.rto_ms, s.cfg.rto.max_rto_ms);
      EXPECT_EQ(static_cast<std::size_t>(s.handler.complete_sets),
                s.ledger.edge_stats().size());
    }
  }
}

TEST(RequestLedger, OutageEntersDegradedAndFirstDeliveryLeavesIt) {
  const double outage_start = 2000.0;
  const double outage_end = 5000.0;
  Session s(ledger_config(net::FaultScript::outage(outage_start, outage_end),
                          5));
  drive(s, 300, 8);
  EXPECT_FALSE(s.ledger.degraded());
  const auto h = s.ledger.link_health();
  EXPECT_EQ(h.degraded_entries, 1);
  EXPECT_GT(h.probes_sent, 0);
  EXPECT_GT(h.time_in_degraded_ms, 0.0);

  double enter_ms = -1.0;
  double exit_ms = -1.0;
  double first_delivery_ms = -1.0;
  for (const auto& e : s.tracer.events()) {
    if (e.name == "degraded.enter") enter_ms = e.ts_ms;
    if (e.name == "degraded.exit") exit_ms = e.ts_ms;
    const bool delivery = e.name == "chunk" || e.name == "ping_response" ||
                          e.name == "duplicate_chunk";
    if (delivery && enter_ms >= 0.0 && first_delivery_ms < 0.0) {
      first_delivery_ms = e.ts_ms;
    }
  }
  EXPECT_GE(enter_ms, outage_start);
  EXPECT_LT(enter_ms, outage_end);
  EXPECT_GE(exit_ms, outage_end);
  // Left on the first delivery after the outage, not a frame later.
  EXPECT_DOUBLE_EQ(exit_ms, first_delivery_ms);
}

TEST(RequestLedger, TimedOutInitHalfVoidsBothHalves) {
  // The outage swallows the pair's first attempts and every retry.
  Session s(ledger_config(net::FaultScript::outage(0.0, 8000.0), 7));
  s.ledger.submit(0, /*is_init=*/true, 20000, sample_request(), {}, 0.0);
  s.ledger.submit(5, /*is_init=*/true, 20000, sample_request(), {}, 0.0);
  int frame = 1;
  while (s.handler.init_voided == 0 && frame < 400) {
    s.ledger.advance(frame, frame * kFrameMs);
    ++frame;
  }
  ASSERT_EQ(s.handler.init_voided, 1);
  // Both halves are gone at once; only probes may remain on the books.
  EXPECT_FALSE(s.ledger.has_outstanding_request());
  EXPECT_EQ(s.ledger.blocking_requests(), 0);
  EXPECT_GE(s.ledger.link_health().requests_failed, 1);
  EXPECT_EQ(s.handler.complete_sets, 0);
}

TEST(RequestLedger, AdmissionRejectedInitHalfVoidsBothHalves) {
  // A neighbour keeps a one-slot GPU queue full, so the pair is refused
  // at the admission gate.
  GpuConfig gpu_cfg;
  gpu_cfg.admission_queue_limit = 1;
  gpu_cfg.max_batch = 1;
  EdgeGpu gpu(gpu_cfg);
  Session s(ledger_config(net::FaultScript::none(), 9), &gpu);
  PipelineConfig hog_cfg = ledger_config(net::FaultScript::none(), 10);
  EdgeServer hog(hog_cfg.model, hog_cfg.edge, rt::Rng(11), {},
                 net::SendQueue(net::wifi_5ghz(), rt::Rng(12)));
  hog.attach_gpu(&gpu);

  int voided_checked = 0;
  for (int f = 0; f < 240; ++f) {
    const double now = f * kFrameMs;
    hog.submit_keyframe(100000 + f, now, 2000, sample_request(), 0);
    hog.poll(now);
    s.ledger.advance(f, now);
    if (s.handler.init_voided > voided_checked) {
      voided_checked = s.handler.init_voided;
      EXPECT_FALSE(s.ledger.has_outstanding_request()) << "frame " << f;
    }
    if (!s.ledger.has_outstanding_request() && !s.ledger.degraded()) {
      s.ledger.submit(2 * f, /*is_init=*/true, 20000, sample_request(), {},
                      now);
      s.ledger.submit(2 * f + 1, /*is_init=*/true, 20000, sample_request(),
                      {}, now);
    }
  }
  const auto h = s.ledger.link_health();
  EXPECT_GT(h.admission_rejects, 0);
  EXPECT_GT(s.handler.init_voided, 0);
  EXPECT_GT(gpu.stats().admission_rejects, 0);
}
