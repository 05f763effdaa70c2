// Metric definitions shared by every workload, the per-session digest the
// determinism gate compares, and the result line's JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace edgebench {

/// The paper's real-time budget: one frame at 30 fps.
inline constexpr double kFrameBudgetMs = 1000.0 / 30.0;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // the population it was taken over
};

/// Linear-interpolated percentile (p in [0, 100]) at rank p/100 * (n - 1),
/// the rule rt::SampleSet::percentile uses; {0, 0} for no samples.
Percentile percentile(std::vector<double> samples, double p);

/// part / whole, or 0 when whole is 0 (nothing to share out).
double share(double part, double whole);

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty list.
double median(std::vector<double> values);

/// Modelled end-to-end metrics of one run, pooled over its sessions.
/// Deterministic for a fixed seed.
struct ModelledMetrics {
  long long client_frames = 0;
  int sessions = 0;
  // Pooled object-frame IoU after warm-up.
  double iou = 0.0;
  std::size_t iou_samples = 0;
  // Worst session by mean IoU.
  double min_client_iou = 0.0;
  std::string min_client;
  // Sessions that never applied an edge annotation.
  int uninit_sessions = 0;
  double uninit_share = 0.0;
  // Per-frame modelled mobile latency after warm-up.
  Percentile mobile_p50;
  Percentile mobile_p95;
  double frame_budget_miss_share = 0.0;  // latency > kFrameBudgetMs
  // Frames degraded or rendered from an annotation older than
  // core::kStaleThresholdMs (rt::SloTracker's violation frames).
  double stale_rate = 0.0;
  long long slo_frames = 0;
  Percentile staleness_p95;  // age of the newest applied annotation
  double uplink_kib_per_frame = 0.0;
  // (requests failed + admission rejects) / requests sent.
  double failed_share = 0.0;
  long long requests_sent = 0;
};

ModelledMetrics summarize(const std::vector<SessionResult>& sessions);

/// One session's row of the per-session table.
struct SessionRow {
  std::string name;
  double iou = 0.0;
  std::size_t iou_samples = 0;
  bool uninit = false;
  int bootstrap_attempts = 0;
  double degraded_ms = 0.0;
  double stale_rate = 0.0;
  double uplink_kib = 0.0;
};

SessionRow session_row(const SessionResult& session);

/// FNV-1a over the bit patterns of every modelled output of a session:
/// IoU, latency and staleness samples, ledger counters, SLO dwell,
/// uplink accounting. Equal digests <=> bit-identical results.
std::uint64_t session_digest(const SessionResult& session);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, values
/// with all 17 significant digits. Non-finite values are written as null.
std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics);

}  // namespace edgebench
