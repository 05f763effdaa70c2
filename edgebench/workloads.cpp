#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"
#include "host_speed.hpp"
#include "net/faults.hpp"
#include "scene/presets.hpp"
#include "sim/device.hpp"

namespace edgebench {

namespace core = edgeis::core;
namespace rt = edgeis::rt;
namespace scene = edgeis::scene;

namespace {

// Session lengths. A session needs ~45 frames to bootstrap (init pair at
// least 20 frames apart plus the edge round trip); scoring starts after
// that. The outage window of stress-outage ends at 5.5 s, so its sessions
// run 7 s to include the recovery.
constexpr int kSoloFrames = 105;
constexpr int kFleetFrames = 90;
constexpr int kStressFrames = 210;
constexpr int kFleetClients = 8;

// Object layouts are each preset's canonical layout (the seeds the repo's
// fleet bench gives its clients); the workload seed varies the room
// texture, the sensor noise and the pipeline's own randomness.
std::uint64_t layout_seed(int session) {
  return 42 + 17 * static_cast<std::uint64_t>(session);
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: decorrelated per-session seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* const kDatasets[] = {"davis", "kitti", "xiph", "field"};

Workload solo_datasets(std::uint64_t seed) {
  Workload w;
  w.name = "solo-datasets";
  for (int i = 0; i < 4; ++i) {
    SessionSpec s;
    s.name = std::to_string(i) + "-" + kDatasets[i];
    s.scene =
        scene::make_dataset_scene(kDatasets[i], layout_seed(i), kSoloFrames);
    s.scene.noise_seed = mix(seed, 2 * i);
    s.pipeline.seed = mix(seed, 2 * i + 1);
    w.sessions.push_back(std::move(s));
  }
  return w;
}

Workload fleet_8(std::uint64_t seed) {
  Workload w;
  w.name = "fleet-8";
  w.fleet = true;
  w.gpu.admission_queue_limit = 8;
  w.gpu.max_batch = 8;
  for (int i = 0; i < kFleetClients; ++i) {
    SessionSpec s;
    s.name = std::to_string(i) + "-" + kDatasets[i % 4];
    s.scene = scene::make_dataset_scene(kDatasets[i % 4], layout_seed(i),
                                        kFleetFrames);
    s.scene.noise_seed = mix(seed, 2 * i);
    s.pipeline.edge = edgeis::sim::jetson_agx_xavier();
    s.pipeline.seed = mix(seed, 2 * i + 1);
    w.sessions.push_back(std::move(s));
  }
  return w;
}

Workload stress_outage(std::uint64_t seed) {
  Workload w;
  w.name = "stress-outage";
  const char* const regimes[] = {"stress-occlusion", "stress-crowd"};
  for (int i = 0; i < 2; ++i) {
    SessionSpec s;
    s.name = std::to_string(i) + "-" + regimes[i];
    s.scene =
        scene::make_stress_scene(regimes[i], layout_seed(i), kStressFrames);
    s.scene.noise_seed = mix(seed, 2 * i);
    s.pipeline.link = edgeis::net::lte();
    s.pipeline.faults = edgeis::net::FaultScript::outage(3000.0, 5500.0);
    s.pipeline.encoding.uplink = edgeis::enc::UplinkMode::kDelta;
    s.pipeline.probe_interval_frames = 10;
    s.pipeline.seed = mix(seed, 2 * i + 1);
    w.sessions.push_back(std::move(s));
  }
  return w;
}

double session_span_ms(const scene::SceneConfig& config) {
  return 1000.0 * config.total_frames / config.fps;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "solo-datasets") return solo_datasets(seed);
  if (name == "fleet-8") return fleet_8(seed);
  if (name == "stress-outage") return stress_outage(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

void TraceCounts::add_trace(const rt::Tracer& tracer, double warmup_ms) {
  std::vector<int> mobile_pids;
  for (const auto& e : tracer.events()) {
    if (e.ph == 'X' && e.pid == rt::track::kEdge.pid &&
        e.tid == rt::track::kEdge.tid && e.name == "infer") {
      ++infer_spans;
      infer_ms += e.dur_ms;
      continue;
    }
    if (e.ph != 'B' || !is_mobile_track(e)) continue;
    auto arg = [&e](const char* key) {
      for (const auto& a : e.args) {
        if (a.key == key) return a.number;
      }
      return 0.0;
    };
    if (e.name == "frame") {
      ++frames;
      if (std::find(mobile_pids.begin(), mobile_pids.end(), e.pid) ==
          mobile_pids.end()) {
        mobile_pids.push_back(e.pid);
      }
    } else if (e.name == "extract") {
      ++extract_spans;
      features += arg("features");
    } else if (e.name == "klt_track") {
      ++extract_spans;
      features += arg("tracked");
    } else if (e.name == "track") {
      ++track_frames;
      matched += arg("matched");
    } else if (e.name == "transfer") {
      ++transfer_spans;
      masks += arg("masks");
    }
  }
  for (int pid : mobile_pids) {
    const auto stages =
        tracer.aggregate(rt::TraceTrack{pid, rt::track::kMobile.tid},
                         warmup_ms);
    auto total = [&stages](const char* name) {
      const auto it = stages.find(name);
      return it == stages.end() ? 0.0 : it->second.total_ms;
    };
    const auto frame_it = stages.find("frame");
    if (frame_it != stages.end()) warm_frames += frame_it->second.count;
    extract_ms += total("extract") + total("klt_track");
    track_ms += total("track");
    transfer_ms += total("transfer");
    encode_ms += total("encode");
  }
  const auto rollup =
      rt::CritPathAnalysis::from_trace(tracer, warmup_ms).rollup();
  cp_requests += rollup.requests;
  cp_total.accumulate(rollup.total);
}

PreparedRun::PreparedRun(const Workload& workload) : workload_(workload) {
  if (workload.fleet) gpu_ = std::make_unique<core::EdgeGpu>(workload.gpu);
  for (const auto& s : workload.sessions) {
    sims_.push_back(std::make_unique<scene::SceneSimulator>(s.scene));
    pipelines_.push_back(
        std::make_unique<core::EdgeISPipeline>(s.scene, s.pipeline));
    if (gpu_) pipelines_.back()->attach_shared_gpu(gpu_.get());
  }
}

PreparedRun::~PreparedRun() = default;

RunOutput PreparedRun::run(Instruments* instruments) {
  if (ran_) throw std::logic_error("PreparedRun::run called twice");
  ran_ = true;
  const double warmup_ms = 1000.0 * workload_.warmup_frames /
                           workload_.sessions.front().scene.fps;
  RunOutput out;

  if (workload_.fleet) {
    core::FleetConfig config;
    config.gpu = workload_.gpu;
    config.warmup_frames = workload_.warmup_frames;
    for (const auto& s : workload_.sessions) {
      config.clients.push_back({s.scene, s.pipeline});
      out.sim_span_ms = std::max(out.sim_span_ms, session_span_ms(s.scene));
    }
    // The probe rides on the frame events, so even an untraced fleet run
    // drives run_fleet's internal silent tracer.
    SpeedProbe probe;
    ProbeSink probe_sink(probe, instruments ? &instruments->sink : nullptr);
    config.sink = &probe_sink;
    rt::Tracer tracer;
    const double t0 = now_ms();
    const double cpu0 = process_cpu_ms();
    auto fleet = core::run_fleet(config, instruments ? &tracer : nullptr);
    out.host.cpu_ms = process_cpu_ms() - cpu0 - probe.total_cpu_ms();
    out.host.run_ms = now_ms() - t0 - probe.total_wall_ms();
    out.host.probe_ms = probe.mean_ms();
    out.host.probe_samples = probe.samples();
    if (instruments != nullptr) {
      instruments->counts.add_trace(tracer, warmup_ms);
    }
    out.has_gpu_stats = true;
    out.gpu = fleet.gpu;
    for (std::size_t i = 0; i < fleet.clients.size(); ++i) {
      const int frames = workload_.sessions[i].scene.total_frames;
      out.client_frames += frames;
      out.sessions.push_back({workload_.sessions[i].name, frames,
                              std::move(fleet.clients[i])});
    }
    return out;
  }

  // Back-to-back single-client sessions: run_fleet's per-client tick
  // (render, process, record, SLO) without the scheduler, timing each call.
  // Each session's trace is kept and analysed after the run is timed, as
  // on the fleet path.
  std::vector<std::unique_ptr<rt::Tracer>> tracers;
  SpeedProbe probe;
  const double t_run = now_ms();
  const double cpu_run = process_cpu_ms();
  for (std::size_t si = 0; si < workload_.sessions.size(); ++si) {
    const auto& spec = workload_.sessions[si];
    const scene::SceneSimulator& sim = *sims_[si];
    core::EdgeISPipeline& pipeline = *pipelines_[si];
    rt::Tracer* active = nullptr;
    if (instruments != nullptr) {
      tracers.push_back(std::make_unique<rt::Tracer>());
      active = tracers.back().get();
      instruments->sink.set_session_offset(static_cast<int>(si));
      active->set_sink(&instruments->sink);
    }
    pipeline.set_tracer(active);
    core::RunAccumulator acc(spec.pipeline.mobile, spec.scene.fps,
                             workload_.warmup_frames, 10);
    rt::SloTracker slo(core::kStaleThresholdMs);
    double last_frame_ms = 0.0;
    for (int i = 0; i < sim.total_frames(); ++i) {
      const double t0 = now_ms();
      const scene::RenderedFrame frame = sim.render(i);
      const double t1 = now_ms();
      const core::FrameOutput fo = pipeline.process(frame);
      const double t2 = now_ms();
      acc.record(sim, frame, fo, active);
      const double t3 = now_ms();
      last_frame_ms = frame.timestamp * 1000.0;
      slo.observe_frame(last_frame_ms, fo.staleness_ms, fo.degraded);
      out.host.render_ms += t1 - t0;
      out.host.process_ms += t2 - t1;
      out.host.score_ms += t3 - t2;
      probe.sample();
    }
    pipeline.set_tracer(nullptr);
    if (active != nullptr) active->set_sink(nullptr);
    slo.finish(last_frame_ms + 1000.0 / sim.config().fps);
    SessionResult r;
    r.name = spec.name;
    r.frames = sim.total_frames();
    r.result.health = pipeline.link_health();
    r.result.slo = slo.summary();
    r.result.ended_degraded = pipeline.degraded();
    r.result.bootstrap_attempts = pipeline.bootstrap_attempts();
    r.result.run = acc.finish();
    out.client_frames += r.frames;
    out.host.render_calls += r.frames;
    out.sim_span_ms += session_span_ms(spec.scene);
    out.sessions.push_back(std::move(r));
  }
  out.host.cpu_ms = process_cpu_ms() - cpu_run - probe.total_cpu_ms();
  out.host.run_ms = now_ms() - t_run - probe.total_wall_ms();
  out.host.probe_ms = probe.mean_ms();
  out.host.probe_samples = probe.samples();
  for (const auto& tracer : tracers) {
    instruments->counts.add_trace(*tracer, warmup_ms);
  }
  return out;
}

HostTimes replay_harness(const Workload& workload, int stride) {
  HostTimes t;
  for (const auto& spec : workload.sessions) {
    const scene::SceneSimulator sim(spec.scene);
    for (int i = 0; i < sim.total_frames(); i += stride) {
      const double t0 = now_ms();
      const scene::RenderedFrame frame = sim.render(i);
      const double t1 = now_ms();
      const auto gts = sim.ground_truth_masks(frame);
      edgeis::eval::score_frame(i, gts, gts, 0.0);
      const double t2 = now_ms();
      t.render_ms += t1 - t0;
      t.score_ms += t2 - t1;
      ++t.render_calls;
    }
  }
  return t;
}

}  // namespace edgebench
