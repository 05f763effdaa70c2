// edgebench: the repository's end-to-end benchmark.
//
//   edgebench --workload solo-datasets|fleet-8|stress-outage --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures host throughput (client-frames per CPU-second,
// normalised to a reference core speed; see host_speed.hpp) and set-up
// time (the result line) and prints peak RSS and the modelled end-to-end
// metrics: quality, mobile latency, staleness, uplink and failures.
// --trace 1 runs untraced and traced repeats in pairs; its result line
// holds the per-layer metrics:
// host time split by layer (HostStageSink), the modelled metrics, modelled
// work counts and the critical-path waterfall. The traced run's host spans
// are written as Chrome trace-event JSON under --out-dir.
//
// Gates (exit 1, "correct": false): every repeat's modelled results must be
// bit-identical to the first, the traced run's to the untraced run's, and
// the stage events must cover process(). The last line of stdout is the
// result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "host_sink.hpp"
#include "host_speed.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace edgebench;

namespace {

// Set-ups timed in a burst: kSetupBurst of them, or fewer if they take
// longer than kSetupBurstMs (but never fewer than kMinSetupBurst). One
// set-up takes 0.05-0.3 ms and single samples scatter widely, so the median
// needs many of them. Each is timed in CPU time and scaled to the reference
// core speed by a probe run just before it (host_speed.hpp); a burst before
// the first repeat and one after the last sample the host twice.
constexpr int kSetupBurst = 500;
constexpr int kMinSetupBurst = 16;
constexpr double kSetupBurstMs = 1500.0;
// Attribution gate: process() time the stage events leave uncovered, as a
// share of the time measured around the calls.
constexpr double kMaxUnattributedShare = 0.05;
// Fleet harness replay: every n-th frame of each session.
constexpr int kReplayStride = 4;

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/edgebench-out";
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      o.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return o;
}

/// One measured repeat: its host timing and the modelled results.
struct Repeat {
  double setup_s = 0.0;
  RunOutput out;
  ModelledMetrics modelled;
  std::vector<std::uint64_t> digests;
  /// The end-to-end throughput: per CPU-second at the reference speed.
  [[nodiscard]] double frames_per_cpu_s() const {
    return normalized_frames_per_s(out.client_frames, out.host.cpu_ms,
                                   out.host.probe_ms);
  }
  [[nodiscard]] double wall_frames_per_s() const {
    return static_cast<double>(out.client_frames) / (out.host.run_ms / 1000.0);
  }
};

/// Set-up: build the workload's scenes from the seed and construct every
/// session. Returns the seconds it took: CPU time at the reference speed.
double time_setup(const Options& opt, SpeedProbe& probe) {
  const double probe_ms = probe.sample();
  const double t0 = process_cpu_ms();
  const Workload w = make_workload(opt.workload, opt.seed);
  PreparedRun prepared(w);
  return reference_ms(process_cpu_ms() - t0, probe_ms) / 1000.0;
}

/// Append a burst of set-up times (seconds) to `samples`.
void setup_burst(const Options& opt, SpeedProbe& probe,
                 std::vector<double>& samples) {
  const double start_ms = now_ms();
  for (int n = 0; n < kSetupBurst; ++n) {
    if (n >= kMinSetupBurst && now_ms() - start_ms > kSetupBurstMs) break;
    samples.push_back(time_setup(opt, probe));
  }
}

/// Set up (timed, as time_setup) and run one repeat of the workload, traced
/// when `instruments` is set.
Repeat run_repeat(const Options& opt, Instruments* instruments,
                  SpeedProbe& probe, std::vector<double>& setup_samples) {
  Repeat r;
  const double probe_ms = probe.sample();
  const double t0 = process_cpu_ms();
  const Workload w = make_workload(opt.workload, opt.seed);
  PreparedRun prepared(w);
  r.setup_s = reference_ms(process_cpu_ms() - t0, probe_ms) / 1000.0;
  setup_samples.push_back(r.setup_s);
  r.out = prepared.run(instruments);
  r.modelled = summarize(r.out.sessions);
  for (const auto& s : r.out.sessions) r.digests.push_back(session_digest(s));
  return r;
}

/// Sessions whose outputs are malformed: wrong frame count, latency or
/// IoU samples outside their domain. Returns the client-frames they hold.
long long failed_frames(const Workload& w, const RunOutput& out) {
  long long failed = 0;
  for (std::size_t i = 0; i < out.sessions.size(); ++i) {
    const auto& s = out.sessions[i];
    bool ok = s.frames == w.sessions[i].scene.total_frames;
    for (double x : s.result.run.evaluator.latency_samples().samples()) {
      ok = ok && std::isfinite(x) && x > 0.0;
    }
    for (double x : s.result.run.evaluator.iou_samples().samples()) {
      ok = ok && x >= 0.0 && x <= 1.0;
    }
    if (!ok) failed += s.frames;
  }
  return failed;
}

void print_sessions(const Repeat& r) {
  std::printf("\nper-session (first repeat):\n");
  std::printf("  %-20s %8s %8s %7s %9s %11s %8s %10s\n", "session", "iou",
              "samples", "uninit", "bootstrap", "degraded_ms", "stale",
              "uplink_KiB");
  for (const auto& s : r.out.sessions) {
    const SessionRow row = session_row(s);
    std::printf("  %-20s %8.4f %8zu %7s %9d %11.1f %8.4f %10.1f\n",
                row.name.c_str(), row.iou, row.iou_samples,
                row.uninit ? "yes" : "no", row.bootstrap_attempts,
                row.degraded_ms, row.stale_rate, row.uplink_kib);
  }
}

void print_modelled(const ModelledMetrics& m) {
  std::printf("\nmodelled end-to-end (sim clock; bit-identical per seed):\n");
  std::printf("  iou                      %.4f  (%zu object-frames)\n", m.iou,
              m.iou_samples);
  std::printf("  min_client_iou           %.4f  (%s)\n", m.min_client_iou,
              m.min_client.c_str());
  std::printf("  uninit_share             %.4f  (%d of %d sessions)\n",
              m.uninit_share, m.uninit_sessions, m.sessions);
  std::printf("  mobile_ms_p50 / p95      %.2f / %.2f ms  (%zu frames)\n",
              m.mobile_p50.value, m.mobile_p95.value, m.mobile_p95.samples);
  std::printf("  frame_budget_miss_share  %.4f  (> %.1f ms)\n",
              m.frame_budget_miss_share, kFrameBudgetMs);
  std::printf("  stale_rate               %.4f  (%lld frames)\n",
              m.stale_rate, m.slo_frames);
  std::printf("  staleness_ms_p95         %.1f ms  (%zu frames)\n",
              m.staleness_p95.value, m.staleness_p95.samples);
  std::printf("  uplink_kib_per_frame     %.3f KiB\n", m.uplink_kib_per_frame);
  std::printf("  failed_share             %.4f  (%lld requests)\n",
              m.failed_share, m.requests_sent);
}

/// The modelled end-to-end metrics. They repeat bit-exactly per seed but
/// swing by up to tens of percent from seed to seed, so they ride in the
/// traced result line (no bound) rather than beside the host metrics.
std::vector<Metric> modelled_metrics(const ModelledMetrics& m) {
  return {
      {"model.iou", m.iou, "share"},
      {"model.min_client_iou", m.min_client_iou, "share"},
      {"model.uninit_share", m.uninit_share, "share"},
      {"model.mobile_ms_p50", m.mobile_p50.value, "ms"},
      {"model.mobile_ms_p95", m.mobile_p95.value, "ms"},
      {"model.frame_budget_miss_share", m.frame_budget_miss_share, "share"},
      {"model.stale_rate", m.stale_rate, "share"},
      {"model.staleness_ms_p95", m.staleness_p95.value, "ms"},
      {"model.uplink_kib_per_frame", m.uplink_kib_per_frame, "KiB"},
      {"model.failed_share", m.failed_share, "share"},
  };
}

/// A traced repeat together with what its sink and counters saw.
struct TracedRepeat {
  Repeat repeat;
  Instruments instruments;
};

std::vector<Metric> per_layer(const Workload& w, const TracedRepeat& t,
                              double overhead_share, const HostTimes& replay,
                              const Repeat& untraced, double untraced_rss_mb) {
  const RunOutput& out = t.repeat.out;
  const double frames = static_cast<double>(out.client_frames);
  const auto per_frame = [frames](double x) { return x / frames; };
  const HostStageSink& sink = t.instruments.sink;
  const double process_ms = w.fleet ? sink.process_ms() : out.host.process_ms;
  const double unattributed_ms =
      w.fleet ? 0.0 : out.host.process_ms - sink.process_ms();
  const HostTimes& harness = w.fleet ? replay : out.host;
  const double harness_calls = static_cast<double>(harness.render_calls);

  std::vector<Metric> m = {
      {"core.process_ms", per_frame(process_ms), "ms"}};
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    m.push_back({layer_metric(layer), per_frame(sink.layer_ms(layer)), "ms"});
  }
  const TraceCounts& c = t.instruments.counts;
  const auto health_sum = [&out](auto field) {
    double total = 0.0;
    for (const auto& s : out.sessions) total += s.result.health.*field;
    return total;
  };
  double tiles_sent = 0.0, tiles_reused = 0.0, transmissions = 0.0;
  for (const auto& s : out.sessions) {
    tiles_sent += static_cast<double>(s.result.health.canvas_tiles_sent);
    tiles_reused += static_cast<double>(s.result.health.canvas_tiles_reused);
    transmissions += s.result.run.transmissions;
  }
  const double warm = static_cast<double>(c.warm_frames);
  const double cp = static_cast<double>(c.cp_requests);
  const auto& cpt = c.cp_total;
  const double mean_batch =
      out.has_gpu_stats
          ? share(out.gpu.batched_requests, out.gpu.batches)
          : (c.infer_spans > 0 ? 1.0 : 0.0);  // private GPU: one per pass
  const double gpu_busy_ms = out.has_gpu_stats ? out.gpu.busy_ms : c.infer_ms;
  const std::vector<Metric> rest = {
      {"core.unattributed_ms", per_frame(unattributed_ms), "ms"},
      {"scene.render_ms", share(harness.render_ms, harness_calls), "ms"},
      {"eval.score_ms", share(harness.score_ms, harness_calls), "ms"},
      {"harness_ms", per_frame(out.host.run_ms - process_ms), "ms"},
      {"trace.overhead_share", overhead_share, "share"},
      {"features.per_frame", share(c.features, c.extract_spans), "count"},
      {"vo.matched_per_frame", share(c.matched, c.track_frames), "count"},
      {"vo.tracked_share", share(c.track_frames, c.frames), "share"},
      {"transfer.masks_per_frame", share(c.masks, c.transfer_spans), "count"},
      {"mobile.extract_ms", share(c.extract_ms, warm), "ms"},
      {"mobile.track_ms", share(c.track_ms, warm), "ms"},
      {"mobile.transfer_ms", share(c.transfer_ms, warm), "ms"},
      {"mobile.encode_ms", share(c.encode_ms, warm), "ms"},
      {"cfrs.tx_share", share(transmissions, frames), "share"},
      {"encoding.canvas_hit_rate",
       share(tiles_reused, tiles_sent + tiles_reused), "share"},
      {"cp.up_ms",
       share(cpt.uplink_retry_ms + cpt.uplink_queue_ms + cpt.uplink_transit_ms,
             cp),
       "ms"},
      {"cp.gpu_wait_ms", share(cpt.gpu_wait_ms, cp), "ms"},
      {"cp.compute_ms", share(cpt.compute_ms, cp), "ms"},
      {"cp.stream_ms", share(cpt.stream_tail_ms, cp), "ms"},
      {"cp.down_ms", share(cpt.downlink_queue_ms + cpt.downlink_transit_ms, cp),
       "ms"},
      {"cp.pickup_ms", share(cpt.pickup_ms, cp), "ms"},
      {"core.admission_rejects",
       health_sum(&edgeis::rt::LinkHealthStats::admission_rejects), "count"},
      {"core.mean_batch", mean_batch, "count"},
      {"core.gpu_busy_share", share(gpu_busy_ms, out.sim_span_ms), "share"},
      {"net.retransmissions",
       health_sum(&edgeis::rt::LinkHealthStats::retransmissions), "count"},
      {"net.attempt_timeouts",
       health_sum(&edgeis::rt::LinkHealthStats::attempt_timeouts), "count"},
      {"net.requests_failed",
       health_sum(&edgeis::rt::LinkHealthStats::requests_failed), "count"},
      {"core.degraded_ms",
       share(health_sum(&edgeis::rt::LinkHealthStats::time_in_degraded_ms),
             static_cast<double>(out.sessions.size())),
       "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  m.push_back({"host.wall_frames_per_s", untraced.wall_frames_per_s(), "1/s"});
  m.push_back({"host.probe_ms", untraced.out.host.probe_ms, "ms"});
  m.push_back({"mem.peak_rss_mb", untraced_rss_mb, "MB"});
  const auto modelled = modelled_metrics(t.repeat.modelled);
  m.insert(m.end(), modelled.begin(), modelled.end());
  return m;
}

/// The traced run's host spans as Chrome trace-event JSON (one track per
/// session; "process" spans parent the per-layer spans), with the seed,
/// nproc and per-layer numbers under otherData.
bool write_host_trace(const std::string& path, const Options& opt,
                      const HostStageSink& sink,
                      const std::vector<Metric>& layers) {
  double origin = 0.0;
  if (!sink.frame_spans().empty()) origin = sink.frame_spans().front().begin_ms;
  std::string out = "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"host\"}}";
  char buf[256];
  auto emit = [&](const char* name, const HostSpan& s) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  s.session + 1, name, (s.begin_ms - origin) * 1000.0,
                  (s.end_ms - s.begin_ms) * 1000.0);
    out += buf;
  };
  for (const auto& s : sink.frame_spans()) emit("process", s);
  for (const auto& s : sink.spans()) emit(layer_metric(s.layer), s);
  out += "\n],\"otherData\":{";
  std::snprintf(buf, sizeof buf,
                "\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
                "\"per_layer\":{",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                std::thread::hardware_concurrency());
  out += buf;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", i ? "," : "",
                  layers[i].name.c_str(),
                  std::isfinite(layers[i].value) ? layers[i].value : 0.0);
    out += buf;
  }
  out += "}}}\n";
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  std::ofstream file(path, std::ios::binary);
  file << out;
  return static_cast<bool>(file);
}

int finish(bool correct, long long attempted, long long failed,
           const std::vector<Metric>& metrics) {
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  Workload w;
  try {
    w = make_workload(opt->workload, opt->seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("edgebench workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              w.name.c_str(), static_cast<unsigned long long>(opt->seed),
              opt->seconds, opt->trace ? 1 : 0,
              std::thread::hardware_concurrency());

  // Set-up samples: a burst before the first repeat (its workloads
  // discarded), every repeat's own set-up and, untraced, a burst after the
  // last repeat.
  std::vector<double> setup_samples;
  SpeedProbe setup_probe;
  setup_burst(*opt, setup_probe, setup_samples);

  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  auto check_same = [&](const Repeat& first, const Repeat& r,
                        const char* what) {
    if (r.digests != first.digests) {
      std::printf("GATE FAILED: %s modelled results differ from the first "
                  "repeat\n",
                  what);
      correct = false;
    }
  };
  auto account = [&](const Repeat& r) {
    attempted += r.out.client_frames;
    failed += failed_frames(w, r.out);
  };

  const double start_ms = now_ms();
  // Repeats fill --seconds: as many as fit at the first repeat's pace.
  // The determinism gate compares them when there are two or more; a
  // traced invocation always has two (one untraced, one traced).
  auto planned = [&](double first_ms) {
    return std::max(1, static_cast<int>(std::lround(opt->seconds * 1000.0 /
                                                    first_ms)));
  };

  if (!opt->trace) {
    std::vector<Repeat> repeats;
    repeats.push_back(run_repeat(*opt, nullptr, setup_probe, setup_samples));
    account(repeats.front());
    const int n = planned(now_ms() - start_ms);
    while (static_cast<int>(repeats.size()) < n) {
      repeats.push_back(run_repeat(*opt, nullptr, setup_probe, setup_samples));
      account(repeats.back());
      check_same(repeats.front(), repeats.back(), "repeat");
    }
    setup_burst(*opt, setup_probe, setup_samples);
    print_sessions(repeats.front());
    print_modelled(repeats.front().modelled);
    std::vector<double> fps, wall_fps;
    for (const auto& r : repeats) {
      fps.push_back(r.frames_per_cpu_s());
      wall_fps.push_back(r.wall_frames_per_s());
    }
    const HostTimes& host = repeats.front().out.host;
    std::printf("\nhost end-to-end (%zu repeat(s) of %lld client-frames):\n",
                repeats.size(), repeats.front().out.client_frames);
    std::printf("  frames_per_cpu_s         %.3f 1/s  (median of:",
                median(fps));
    for (double x : fps) std::printf(" %.3f", x);
    std::printf(")\n  (first repeat: %.1f ms CPU, %.1f ms wall, %.3f wall "
                "frames/s; probe %.4f ms CPU over %d runs, nominal %.4f)\n",
                host.cpu_ms, host.run_ms, wall_fps.front(), host.probe_ms,
                host.probe_samples, kProbeNominalMs);
    std::printf("  setup_s                  %.6f s  (median of %zu; "
                "quartiles %.6f-%.6f)\n",
                median(setup_samples), setup_samples.size(),
                percentile(setup_samples, 25.0).value,
                percentile(setup_samples, 75.0).value);
    std::printf("  peak_rss_mb              %.1f MB\n", peak_rss_mb());
    if (failed > 0) correct = false;
    return finish(correct, attempted, failed,
                  {{"frames_per_cpu_s", median(fps), "1/s"},
                   {"setup_s", median(setup_samples), "s"}});
  }

  // --trace 1: untraced/traced pairs; the per-layer numbers are the first
  // traced repeat's, the overhead compares median throughputs.
  std::vector<Repeat> untraced;
  std::vector<std::unique_ptr<TracedRepeat>> traced;
  int pairs = 1;
  double untraced_rss_mb = 0.0;
  for (int p = 0; p < pairs; ++p) {
    untraced.push_back(run_repeat(*opt, nullptr, setup_probe, setup_samples));
    account(untraced.back());
    if (p == 0) untraced_rss_mb = peak_rss_mb();
    auto t = std::make_unique<TracedRepeat>();
    t->repeat = run_repeat(*opt, &t->instruments, setup_probe,
                          setup_samples);
    account(t->repeat);
    check_same(untraced.front(), untraced.back(), "untraced repeat");
    check_same(untraced.front(), t->repeat, "traced run");
    traced.push_back(std::move(t));
    if (p == 0) pairs = planned(now_ms() - start_ms);
  }
  std::vector<double> untraced_fps, traced_fps;
  for (const auto& r : untraced) untraced_fps.push_back(r.frames_per_cpu_s());
  for (const auto& t : traced) {
    traced_fps.push_back(t->repeat.frames_per_cpu_s());
  }
  TracedRepeat& first = *traced.front();
  const HostTimes replay =
      w.fleet ? replay_harness(w, kReplayStride) : HostTimes{};
  const auto layers =
      per_layer(w, first, 1.0 - median(traced_fps) / median(untraced_fps),
                replay, untraced.front(), untraced_rss_mb);

  // Attribution gate: the stage events bracket every process() call and
  // tile it up to a small residual.
  const HostStageSink& sink = first.instruments.sink;
  const RunOutput& out = first.repeat.out;
  double attributed = 0.0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    attributed += sink.layer_ms(static_cast<Layer>(l));
  }
  const double frames = static_cast<double>(out.client_frames);
  std::printf("\nattribution (host ms per client-frame, first traced run):\n");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    std::printf("  %-22s %8.3f\n", layer_metric(layer),
                sink.layer_ms(layer) / frames);
  }
  std::printf("  %-22s %8.3f  (stage events, %d frames closed)\n", "sum",
              attributed / frames, sink.frames_closed());
  if (sink.protocol_errors() != 0 ||
      sink.frames_closed() != static_cast<int>(out.client_frames) ||
      std::fabs(attributed - sink.process_ms()) > 1e-6 * sink.process_ms()) {
    std::printf("GATE FAILED: stage events do not bracket process() "
                "(%d protocol errors, %d of %lld frames closed)\n",
                sink.protocol_errors(), sink.frames_closed(),
                out.client_frames);
    correct = false;
  }
  if (!w.fleet) {
    const double residual = out.host.process_ms - sink.process_ms();
    std::printf("  %-22s %8.3f  (timed around the calls; residual %.4f "
                "ms/frame, %.2f%%)\n",
                "process()", out.host.process_ms / frames, residual / frames,
                100.0 * share(residual, out.host.process_ms));
    if (share(residual, out.host.process_ms) > kMaxUnattributedShare) {
      std::printf("GATE FAILED: stage events leave %.1f%% of process() "
                  "uncovered\n",
                  100.0 * share(residual, out.host.process_ms));
      correct = false;
    }
  }
  print_sessions(first.repeat);
  print_modelled(first.repeat.modelled);
  std::printf("\nper-layer (traced run):\n");
  for (const auto& m : layers) {
    std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  (frames_per_cpu_s untraced %.3f, traced %.3f; "
              "vo.tracked_share sets host work per frame)\n",
              median(untraced_fps), median(traced_fps));
  char name[256];
  std::snprintf(name, sizeof name, "/host_trace-%s-seed%llu.json",
                w.name.c_str(), static_cast<unsigned long long>(opt->seed));
  const std::string path = opt->out_dir + name;
  if (write_host_trace(path, *opt, sink, layers)) {
    std::printf("host trace: %s\n", path.c_str());
  } else {
    std::printf("warning: cannot write %s\n", path.c_str());
  }
  if (failed > 0) correct = false;
  return finish(correct, attempted, failed, layers);
}
