// The benchmark's workloads and the loops that drive them through the
// simulator's public entry points: SceneSimulator::render,
// Pipeline::process, RunAccumulator (ground_truth_masks + score_frame) for
// single-client sessions, and core::run_fleet for the shared-GPU fleet.
//
// Every client is an open loop at its scene's frame rate in modelled time;
// on the host every workload is one single-threaded batch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/edgeis_pipeline.hpp"
#include "core/fleet.hpp"
#include "host_sink.hpp"
#include "runtime/critpath.hpp"
#include "runtime/trace.hpp"
#include "scene/scene.hpp"

namespace edgebench {

struct SessionSpec {
  std::string name;  // "<index>-<preset>", the per-session row label
  edgeis::scene::SceneConfig scene;
  edgeis::core::PipelineConfig pipeline;
};

struct Workload {
  std::string name;
  std::vector<SessionSpec> sessions;
  /// true: every session runs at once through core::run_fleet against one
  /// shared EdgeGpu; false: sessions run back to back, each on its own
  /// private edge server.
  bool fleet = false;
  edgeis::core::GpuConfig gpu;
  int warmup_frames = 45;
};

/// Build a workload's inputs from `seed`; the same seed gives the same
/// scenes and pipeline seeds. Throws std::invalid_argument on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// One session's results: what core::run_fleet reports per client, built
/// the same way for back-to-back sessions.
struct SessionResult {
  std::string name;
  int frames = 0;  // client-frames processed
  edgeis::core::FleetClientResult result;
};

/// Modelled work counted from a traced run's sim-clock events.
struct TraceCounts {
  long long frames = 0;            // "frame" spans
  long long track_frames = 0;      // frames past bootstrap ("track" spans)
  long long extract_spans = 0;     // extract + klt_track spans
  double features = 0.0;           // extract "features" / klt "tracked"
  double matched = 0.0;            // track "matched"
  long long transfer_spans = 0;
  double masks = 0.0;              // transfer "masks"
  // Modelled mobile stage time (sim ms) over post-warmup frames.
  long long warm_frames = 0;
  double extract_ms = 0.0;  // extract + klt_track
  double track_ms = 0.0;
  double transfer_ms = 0.0;
  double encode_ms = 0.0;
  // Critical-path waterfall of completed post-warmup requests.
  int cp_requests = 0;
  edgeis::rt::CritPathStages cp_total;
  // Edge inference occupancy on a private edge server (sum of "infer"
  // spans); the shared-GPU fleet reports GpuStats instead.
  long long infer_spans = 0;
  double infer_ms = 0.0;

  /// Fold in every session of a finished trace.
  void add_trace(const edgeis::rt::Tracer& tracer, double warmup_ms);
};

/// Host time of one measured run, in ms. Probe runs (SpeedProbe) are
/// excluded from run_ms and cpu_ms.
struct HostTimes {
  double run_ms = 0.0;      // whole run after set-up, wall clock
  double cpu_ms = 0.0;      // whole run after set-up, process CPU time
  double probe_ms = 0.0;    // mean CPU ms of one probe run during the run
  int probe_samples = 0;    // probe runs: one per client-frame
  double process_ms = 0.0;  // inside process() (timed around each call;
                            // 0 for the fleet, where run_fleet owns it)
  double render_ms = 0.0;   // SceneSimulator::render
  double score_ms = 0.0;    // RunAccumulator::record (ground truth + score)
  long long render_calls = 0;  // frames the render/score times cover
};

struct RunOutput {
  std::vector<SessionResult> sessions;
  HostTimes host;
  long long client_frames = 0;
  bool has_gpu_stats = false;  // fleet: the shared GPU's own accounting
  edgeis::core::GpuStats gpu;
  double sim_span_ms = 0.0;    // modelled session time, summed over sessions
};

/// What a traced run collects: host time stamped on the stage events and
/// the modelled counts of the sim-clock trace.
struct Instruments {
  HostStageSink sink;
  TraceCounts counts;
};

/// A workload whose sessions are constructed and ready to run: the
/// benchmark's set-up. For the fleet, run_fleet builds its own sessions
/// inside the run, out of reach of a timer; the prepared sessions are a
/// replica of that construction (the same scenes, pipelines and shared
/// EdgeGpu), timed as set-up and then discarded.
class PreparedRun {
 public:
  explicit PreparedRun(const Workload& workload);
  PreparedRun(const PreparedRun&) = delete;
  PreparedRun& operator=(const PreparedRun&) = delete;
  ~PreparedRun();

  /// Run every session once, traced (full-detail tracers) when
  /// `instruments` is set. A PreparedRun runs at most once.
  RunOutput run(Instruments* instruments);

 private:
  const Workload& workload_;
  std::vector<std::unique_ptr<edgeis::scene::SceneSimulator>> sims_;
  std::vector<std::unique_ptr<edgeis::core::EdgeISPipeline>> pipelines_;
  std::unique_ptr<edgeis::core::EdgeGpu> gpu_;  // fleet replica only
  bool ran_ = false;
};

/// The fleet's harness calls, replayed on every `stride`-th frame of each
/// session after the run: run_fleet interleaves render and scoring with
/// no event in between, so its trace cannot split them. Scoring compares
/// the ground truth with itself (one predicted mask per instance).
HostTimes replay_harness(const Workload& workload, int stride);

}  // namespace edgebench
