// Unit tests of the benchmark's own code: the metric definitions, the
// host-speed normalisation and the host-time attribution of HostStageSink,
// driven by scripted events and a scripted clock.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host_sink.hpp"
#include "host_speed.hpp"
#include "report.hpp"

using namespace edgebench;
using edgeis::rt::Tracer;

namespace {

TEST(Percentile, InterpolatesAndCountsSamples) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  const Percentile p50 = percentile(xs, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  // Rank 0.95 * 99 = 94.05 -> between 95 and 96.
  EXPECT_NEAR(percentile(xs, 95.0).value, 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0).value, 100.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0).value, 7.0);
  const Percentile none = percentile({}, 50.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Share, ZeroDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(share(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(share(3.0, 0.0), 0.0);
}

SessionResult session(const std::string& name, std::vector<double> ious,
                      std::vector<double> latencies, bool initialized) {
  SessionResult s;
  s.name = name;
  s.frames = static_cast<int>(latencies.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    edgeis::eval::FrameScore score;
    score.frame_index = static_cast<int>(i);
    score.latency_ms = latencies[i];
    if (i < ious.size()) score.objects.push_back({1, ious[i], true});
    s.result.run.evaluator.add(score);
  }
  if (initialized) {
    s.result.health.mask_staleness_ms.add(100.0);
    s.result.health.mask_staleness_ms.add(300.0);
  }
  return s;
}

TEST(Summarize, PoolsObjectFramesAndUsesTheRightDenominators) {
  auto a = session("0-a", {0.8, 0.6, 0.7}, {20.0, 40.0, 30.0}, true);
  a.result.slo.frames = 3;
  a.result.slo.violation_frames = 1;
  a.result.health.requests_sent = 8;
  a.result.health.requests_failed = 1;
  a.result.run.total_tx_bytes = 3 * 1024;
  auto b = session("1-b", {0.0}, {10.0}, false);
  b.result.slo.frames = 1;
  b.result.health.requests_sent = 2;
  b.result.health.admission_rejects = 1;

  const ModelledMetrics m = summarize({a, b});
  EXPECT_EQ(m.sessions, 2);
  EXPECT_EQ(m.client_frames, 4);
  // Pooled over object-frames (4 of them), not a mean of session means.
  EXPECT_EQ(m.iou_samples, 4u);
  EXPECT_DOUBLE_EQ(m.iou, (0.8 + 0.6 + 0.7 + 0.0) / 4.0);
  EXPECT_DOUBLE_EQ(m.min_client_iou, 0.0);
  EXPECT_EQ(m.min_client, "1-b");
  // Uninit: sessions without any applied annotation, over sessions.
  EXPECT_EQ(m.uninit_sessions, 1);
  EXPECT_DOUBLE_EQ(m.uninit_share, 0.5);
  // Latency percentiles over every post-warmup frame, with their count.
  EXPECT_EQ(m.mobile_p50.samples, 4u);
  EXPECT_DOUBLE_EQ(m.mobile_p50.value, 25.0);
  EXPECT_DOUBLE_EQ(m.frame_budget_miss_share, 0.25);  // only 40 ms > 33.3
  // Stale rate over SLO frames; staleness over applied-annotation frames.
  EXPECT_DOUBLE_EQ(m.stale_rate, 0.25);
  EXPECT_EQ(m.staleness_p95.samples, 2u);
  EXPECT_DOUBLE_EQ(m.uplink_kib_per_frame, 3.0 / 4.0);
  // (failed + rejected) / requests sent.
  EXPECT_EQ(m.requests_sent, 10);
  EXPECT_DOUBLE_EQ(m.failed_share, 0.2);
}

TEST(Summarize, DigestChangesWithAnyModelledOutput) {
  const auto a = session("0-a", {0.8, 0.6}, {20.0, 30.0}, true);
  auto b = a;
  EXPECT_EQ(session_digest(a), session_digest(b));
  b.result.health.retransmissions = 1;
  EXPECT_NE(session_digest(a), session_digest(b));
  auto c = session("0-a", {0.8, 0.6000000001}, {20.0, 30.0}, true);
  EXPECT_NE(session_digest(a), session_digest(c));
}

TEST(ResultJson, WritesEveryDigitAndTheFourKeys) {
  const std::string json =
      result_json(true, 12, 0, {{"frames_per_s", 1.0 / 3.0, "1/s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"frames_per_s\": {\"value\": "
            "0.33333333333333331, \"unit\": \"1/s\"}}}");
}

// Scripted host clock: each event is stamped with the next listed time.
class ScriptedSink {
 public:
  ScriptedSink() : sink_([this] { return now_; }) {}
  void at(double t, int pid, int tid, char ph, const std::string& name = "",
          int session = 0) {
    now_ = t;
    Tracer::Event e;
    e.ph = ph;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    sink_.on_event(session, e);
  }
  HostStageSink& sink() { return sink_; }

 private:
  double now_ = 0.0;
  HostStageSink sink_;
};

constexpr int kMobilePid = 1, kMobileTid = 1, kLedgerTid = 2, kEdgePid = 2;

TEST(HostStageSink, ChargesEachIntervalToTheEventThatClosesIt) {
  ScriptedSink s;
  s.at(0.0, kMobilePid, kMobileTid, 'B', "frame");
  s.at(1.0, kMobilePid, kLedgerTid, 'i', "response");  // ledger prologue
  s.at(1.5, kEdgePid, 1, 'X', "infer");                // still prologue
  s.at(5.0, kMobilePid, kMobileTid, 'B', "extract");   // 3.5 ms features
  s.at(5.0, kMobilePid, kMobileTid, 'E');
  s.at(7.0, kMobilePid, kMobileTid, 'B', "track");     // 2 ms vo
  s.at(7.0, kMobilePid, kMobileTid, 'E');
  s.at(10.0, kMobilePid, kMobileTid, 'B', "transfer");  // 3 ms transfer
  s.at(10.0, kMobilePid, kMobileTid, 'E');
  s.at(11.0, kMobilePid, kMobileTid, 'i', "cfrs.decide");  // 1 ms transmit
  s.at(12.0, kMobilePid, kLedgerTid, 'i', "send");  // after the front end:
                                                    // closes nothing
  s.at(13.0, kMobilePid, kMobileTid, 'B', "encode");  // 2 ms transmit
  s.at(13.0, kMobilePid, kMobileTid, 'E');
  s.at(14.0, kMobilePid, kMobileTid, 'B', "render");  // 1 ms frame tail
  s.at(14.0, kMobilePid, kMobileTid, 'E');
  s.at(14.5, kMobilePid, kMobileTid, 'E');  // frame end: 0.5 ms tail
  s.at(20.0, kMobilePid, kMobileTid, 'C', "latency_ms");  // harness: ignored

  const HostStageSink& k = s.sink();
  EXPECT_EQ(k.protocol_errors(), 0);
  EXPECT_EQ(k.frames_closed(), 1);
  EXPECT_DOUBLE_EQ(k.process_ms(), 14.5);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kLedger), 1.5);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kFeatures), 3.5);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kVo), 2.0);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kTransfer), 3.0);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kTransmit), 3.0);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kFrameTail), 1.5);
  EXPECT_DOUBLE_EQ(k.layer_ms(Layer::kOther), 0.0);
  double sum = 0.0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    sum += k.layer_ms(static_cast<Layer>(l));
  }
  EXPECT_DOUBLE_EQ(sum, k.process_ms());  // the layers tile the frame
  ASSERT_EQ(k.frame_spans().size(), 1u);
  EXPECT_DOUBLE_EQ(k.frame_spans()[0].end_ms, 14.5);
  double span_sum = 0.0;
  for (const auto& span : k.spans()) span_sum += span.end_ms - span.begin_ms;
  EXPECT_DOUBLE_EQ(span_sum, 14.5);
}

TEST(HostStageSink, BootstrapFrameChargesPairChecksToTheTail) {
  ScriptedSink s;
  s.at(0.0, kMobilePid, kMobileTid, 'B', "frame");
  s.at(4.0, kMobilePid, kMobileTid, 'B', "extract");
  s.at(4.0, kMobilePid, kMobileTid, 'E');
  s.at(6.0, kMobilePid, kMobileTid, 'B', "render");  // pair checks + queue
  s.at(6.0, kMobilePid, kMobileTid, 'E');
  s.at(6.0, kMobilePid, kMobileTid, 'E');
  EXPECT_DOUBLE_EQ(s.sink().layer_ms(Layer::kFeatures), 4.0);
  EXPECT_DOUBLE_EQ(s.sink().layer_ms(Layer::kFrameTail), 2.0);
  EXPECT_DOUBLE_EQ(s.sink().layer_ms(Layer::kLedger), 0.0);
}

TEST(HostStageSink, FleetSessionsUseTheirOwnMobileTracks) {
  ScriptedSink s;
  // Client 2 of a fleet: pid offset 8, so its mobile track is pid 9.
  s.at(0.0, 9, kMobileTid, 'B', "frame", 2);
  s.at(1.0, 9, kMobileTid, 'B', "extract", 2);
  s.at(1.0, 9, kMobileTid, 'E', "", 2);
  s.at(2.0, 9, kMobileTid, 'E', "", 2);
  EXPECT_EQ(s.sink().frames_closed(), 1);
  EXPECT_EQ(s.sink().protocol_errors(), 0);
  EXPECT_EQ(s.sink().frame_spans()[0].session, 2);
  EXPECT_FALSE(is_mobile_track(Tracer::Event{'B', kEdgePid, 1, 0, 0, "x", {}}));
}

TEST(HostStageSink, FlagsEventsThatNoLongerBracketTheCall) {
  ScriptedSink stray;
  stray.at(0.0, kMobilePid, kMobileTid, 'B', "extract");  // outside a frame
  EXPECT_EQ(stray.sink().protocol_errors(), 1);

  ScriptedSink open;
  open.at(0.0, kMobilePid, kMobileTid, 'B', "frame");
  open.at(1.0, kMobilePid, kMobileTid, 'B', "extract");
  EXPECT_EQ(open.sink().protocol_errors(), 1);  // frame never closed
  EXPECT_EQ(open.sink().frames_closed(), 0);

  ScriptedSink unknown;
  unknown.at(0.0, kMobilePid, kMobileTid, 'B', "frame");
  unknown.at(2.0, kMobilePid, kMobileTid, 'i', "new.stage");
  unknown.at(3.0, kMobilePid, kMobileTid, 'E');
  EXPECT_DOUBLE_EQ(unknown.sink().layer_ms(Layer::kOther), 2.0);
  EXPECT_EQ(unknown.sink().protocol_errors(), 0);
}

TEST(HostSpeed, ScalesCpuTimeToTheReferenceCore) {
  // 100 frames in 10 CPU-seconds on a core at the reference speed.
  EXPECT_DOUBLE_EQ(normalized_frames_per_s(100, 10000.0, kProbeNominalMs),
                   10.0);
  // The same CPU time on a core running at half speed (the probe takes
  // twice as long) is 5 reference-seconds of work.
  EXPECT_DOUBLE_EQ(normalized_frames_per_s(100, 10000.0, 2 * kProbeNominalMs),
                   20.0);
  EXPECT_DOUBLE_EQ(normalized_frames_per_s(100, 0.0, kProbeNominalMs), 0.0);
  EXPECT_DOUBLE_EQ(normalized_frames_per_s(100, 10000.0, 0.0), 0.0);
}

TEST(HostSpeed, ProbeCountsItsRuns) {
  SpeedProbe probe;
  EXPECT_EQ(probe.samples(), 0);
  EXPECT_DOUBLE_EQ(probe.mean_ms(), 0.0);
  probe.sample();
  probe.sample();
  EXPECT_EQ(probe.samples(), 2);
  EXPECT_GT(probe.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(probe.mean_ms(), probe.total_cpu_ms() / 2.0);
  EXPECT_GE(probe.total_wall_ms(), 0.0);
}

// Records the probe count seen with each forwarded event.
class CountingSink : public Tracer::EventSink {
 public:
  explicit CountingSink(const SpeedProbe& probe) : probe_(probe) {}
  void on_event(int session, const Tracer::Event& e) override {
    seen.push_back({session, e.name, probe_.samples()});
  }
  struct Seen {
    int session;
    std::string name;
    int probes;
  };
  std::vector<Seen> seen;

 private:
  const SpeedProbe& probe_;
};

TEST(HostSpeed, ProbeSinkProbesBeforeEachFrameAndForwardsEverything) {
  SpeedProbe probe;
  CountingSink next(probe);
  ProbeSink sink(probe, &next);
  auto event = [](char ph, int pid, int tid, const std::string& name) {
    Tracer::Event e;
    e.ph = ph;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    return e;
  };
  sink.on_event(0, event('B', kMobilePid, kMobileTid, "frame"));
  sink.on_event(0, event('B', kMobilePid, kMobileTid, "extract"));
  sink.on_event(0, event('E', kMobilePid, kMobileTid, ""));
  sink.on_event(0, event('i', kMobilePid, kLedgerTid, "frame"));  // ledger
  sink.on_event(0, event('X', kEdgePid, 1, "frame"));             // edge
  sink.on_event(0, event('E', kMobilePid, kMobileTid, ""));
  sink.on_event(2, event('B', 9, kMobileTid, "frame"));  // fleet client 2
  EXPECT_EQ(probe.samples(), 2);
  ASSERT_EQ(next.seen.size(), 7u);
  EXPECT_EQ(next.seen[0].probes, 1);  // probed before the frame began
  EXPECT_EQ(next.seen[5].probes, 1);
  EXPECT_EQ(next.seen[6].session, 2);
  EXPECT_EQ(next.seen[6].probes, 2);

  SpeedProbe alone;
  ProbeSink end_of_chain(alone, nullptr);
  end_of_chain.on_event(0, event('B', kMobilePid, kMobileTid, "frame"));
  EXPECT_EQ(alone.samples(), 1);
}

TEST(LayerOfStage, MapsEveryStageThePipelineEmits) {
  EXPECT_EQ(layer_of_stage("extract"), Layer::kFeatures);
  EXPECT_EQ(layer_of_stage("klt_track"), Layer::kFeatures);
  EXPECT_EQ(layer_of_stage("track"), Layer::kVo);
  EXPECT_EQ(layer_of_stage("tracker.reset"), Layer::kVo);
  EXPECT_EQ(layer_of_stage("transfer"), Layer::kTransfer);
  EXPECT_EQ(layer_of_stage("cfrs.decide"), Layer::kTransmit);
  EXPECT_EQ(layer_of_stage("encode"), Layer::kTransmit);
  EXPECT_EQ(layer_of_stage("render"), Layer::kFrameTail);
  EXPECT_EQ(layer_of_stage("frame"), Layer::kOther);
}

}  // namespace
