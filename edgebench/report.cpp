#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace edgebench {

Percentile percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return {samples[lo] + (samples[hi] - samples[lo]) * frac, samples.size()};
}

double share(double part, double whole) {
  return whole != 0.0 ? part / whole : 0.0;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

ModelledMetrics summarize(const std::vector<SessionResult>& sessions) {
  ModelledMetrics m;
  std::vector<double> ious;
  std::vector<double> latencies;
  std::vector<double> staleness;
  long long violation_frames = 0;
  double uplink_bytes = 0.0;
  long long failed = 0;
  bool first = true;
  for (const auto& s : sessions) {
    const auto& r = s.result;
    ++m.sessions;
    m.client_frames += s.frames;
    const auto& iou = r.run.evaluator.iou_samples().samples();
    ious.insert(ious.end(), iou.begin(), iou.end());
    const auto& lat = r.run.evaluator.latency_samples().samples();
    latencies.insert(latencies.end(), lat.begin(), lat.end());
    const auto& st = r.health.mask_staleness_ms.samples();
    staleness.insert(staleness.end(), st.begin(), st.end());
    if (st.empty()) ++m.uninit_sessions;
    const double session_iou = r.run.evaluator.iou_samples().mean();
    if (first || session_iou < m.min_client_iou) {
      m.min_client_iou = session_iou;
      m.min_client = s.name;
      first = false;
    }
    violation_frames += r.slo.violation_frames;
    m.slo_frames += r.slo.frames;
    uplink_bytes += static_cast<double>(r.run.total_tx_bytes);
    m.requests_sent += r.health.requests_sent;
    failed += r.health.requests_failed + r.health.admission_rejects;
  }
  m.iou_samples = ious.size();
  for (double x : ious) m.iou += x;
  m.iou = share(m.iou, static_cast<double>(ious.size()));
  m.uninit_share = share(m.uninit_sessions, m.sessions);
  long long over_budget = 0;
  for (double x : latencies) over_budget += x > kFrameBudgetMs ? 1 : 0;
  m.frame_budget_miss_share =
      share(static_cast<double>(over_budget),
            static_cast<double>(latencies.size()));
  m.mobile_p50 = percentile(latencies, 50.0);
  m.mobile_p95 = percentile(std::move(latencies), 95.0);
  m.stale_rate = share(static_cast<double>(violation_frames),
                       static_cast<double>(m.slo_frames));
  m.staleness_p95 = percentile(std::move(staleness), 95.0);
  m.uplink_kib_per_frame =
      share(uplink_bytes / 1024.0, static_cast<double>(m.client_frames));
  m.failed_share = share(static_cast<double>(failed),
                         static_cast<double>(m.requests_sent));
  return m;
}

SessionRow session_row(const SessionResult& session) {
  const auto& r = session.result;
  SessionRow row;
  row.name = session.name;
  row.iou = r.run.evaluator.iou_samples().mean();
  row.iou_samples = r.run.evaluator.iou_samples().count();
  row.uninit = r.health.mask_staleness_ms.empty();
  row.bootstrap_attempts = r.bootstrap_attempts;
  row.degraded_ms = r.health.time_in_degraded_ms;
  row.stale_rate = share(r.slo.violation_frames, r.slo.frames);
  row.uplink_kib = static_cast<double>(r.run.total_tx_bytes) / 1024.0;
  return row;
}

namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void num(double x) { bytes(&x, sizeof x); }
  void num(long long x) { bytes(&x, sizeof x); }
  void samples(const std::vector<double>& xs) {
    num(static_cast<long long>(xs.size()));
    for (double x : xs) num(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t session_digest(const SessionResult& session) {
  const auto& r = session.result;
  const auto& h = r.health;
  Fnv1a f;
  f.bytes(session.name.data(), session.name.size());
  f.num(static_cast<long long>(session.frames));
  f.samples(r.run.evaluator.iou_samples().samples());
  f.samples(r.run.evaluator.latency_samples().samples());
  f.samples(h.mask_staleness_ms.samples());
  for (long long x :
       {static_cast<long long>(r.run.total_tx_bytes),
        static_cast<long long>(r.run.transmissions),
        static_cast<long long>(r.run.peak_memory_bytes),
        static_cast<long long>(r.bootstrap_attempts),
        static_cast<long long>(r.ended_degraded),
        static_cast<long long>(h.requests_sent),
        static_cast<long long>(h.retransmissions),
        static_cast<long long>(h.attempt_timeouts),
        static_cast<long long>(h.requests_failed),
        static_cast<long long>(h.responses_received),
        static_cast<long long>(h.stale_responses),
        static_cast<long long>(h.spurious_retransmissions),
        static_cast<long long>(h.chunks_received),
        static_cast<long long>(h.duplicate_chunks),
        static_cast<long long>(h.partial_applies),
        static_cast<long long>(h.resend_requests),
        static_cast<long long>(h.rtt_samples),
        static_cast<long long>(h.rto_backoffs),
        static_cast<long long>(h.admission_rejects),
        static_cast<long long>(h.busy_pings),
        static_cast<long long>(h.probes_sent),
        static_cast<long long>(h.degraded_entries),
        static_cast<long long>(h.degraded_frames),
        static_cast<long long>(h.refresh_requests),
        static_cast<long long>(h.canvas_full_keyframes),
        static_cast<long long>(h.canvas_deltas),
        static_cast<long long>(h.canvas_resyncs), h.canvas_tiles_sent,
        h.canvas_tiles_reused, static_cast<long long>(h.uplink_drops),
        static_cast<long long>(h.downlink_drops),
        static_cast<long long>(r.slo.frames),
        static_cast<long long>(r.slo.violation_frames),
        static_cast<long long>(r.slo.violations)}) {
    f.num(x);
  }
  for (double x : {h.srtt_ms, h.rttvar_ms, h.rto_ms, h.time_in_degraded_ms,
                   r.slo.clean_ms, r.slo.stale_ms, r.slo.degraded_ms,
                   r.run.mean_cpu_utilization, r.run.battery_percent}) {
    f.num(x);
  }
  return f.value();
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += buf;
    } else {
      out += "null";
    }
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace edgebench
