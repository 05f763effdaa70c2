// Host-speed normalisation of the benchmark's throughput.
//
// The benchmark runs on shared hosts. There a core runs up to ~2x slower for
// fractions of a second to minutes at a time (clock changes, a busy SMT
// sibling, neighbours' cache traffic), and a guest also loses time to steal
// and preemption. Wall-clock throughput then moves by tens of percent
// between runs of the same code. Two measures take the host out of it:
//
// - Host work is timed in process CPU time. The kernel charges neither
//   steal (paravirtual time accounting) nor time spent waiting to run.
// - SpeedProbe runs a fixed reference kernel between client-frames and
//   times it in CPU time too. Its mean over a run says how fast the core
//   ran during that run; the run's CPU time is scaled by
//   kProbeNominalMs / mean, i.e. to a core that runs the probe at its
//   nominal speed.
//
// The probe is this directory's own code, so a change to the simulator
// moves the workload's CPU time but not the probe's.
#pragma once

#include <cstdint>
#include <vector>

namespace edgebench {

/// CPU time of the whole process / of the calling thread, in ms.
double process_cpu_ms();
double thread_cpu_ms();

/// The reference speed: CPU ms of one probe run between client-frames, as
/// typically measured on the 4-vCPU Xeon guest the benchmark was written
/// on, so that normalised and wall-clock throughput read alike there. Only
/// the scale of the normalised throughput depends on it.
inline constexpr double kProbeNominalMs = 0.085;

/// The reference kernel: nearest-neighbour search by Hamming distance over
/// fixed 256-bit descriptors (64 queries x 512 candidates, ~16 KiB, so it
/// stays in L1). It is compute-bound like the simulator's feature
/// matching and takes ~0.1-0.2 ms. Its source file includes nothing from
/// the simulator and the kernel is 64-byte aligned, so a change to the
/// simulator cannot change the probe's code or its alignment.
class SpeedProbe {
 public:
  SpeedProbe();

  /// Run the kernel once and add its CPU and wall time. Returns the CPU ms
  /// of this run.
  double sample();

  [[nodiscard]] int samples() const { return samples_; }
  /// Mean CPU ms of one run; 0 before the first.
  [[nodiscard]] double mean_ms() const;
  [[nodiscard]] double total_cpu_ms() const { return total_cpu_ms_; }
  [[nodiscard]] double total_wall_ms() const { return total_wall_ms_; }

 private:
  /// Best match of each of the first `queries` descriptors, summed.
  [[nodiscard]] std::uint64_t kernel(int queries) const;

  std::vector<std::uint64_t> descriptors_;
  std::uint64_t checksum_ = 0;  // keeps the kernel's result observable
  int samples_ = 0;
  double total_cpu_ms_ = 0.0;
  double total_wall_ms_ = 0.0;
};

/// CPU time `cpu_ms`, spent while the probe took `probe_ms`, scaled to a
/// core that runs the probe in kProbeNominalMs. 0 when `probe_ms` is not
/// positive.
double reference_ms(double cpu_ms, double probe_ms);

/// Client-frames per CPU-second of a core at the reference speed:
/// frames / reference_ms(cpu_ms, probe_mean_ms), in 1/s. 0 when either
/// time is not positive.
double normalized_frames_per_s(long long frames, double cpu_ms,
                               double probe_mean_ms);

}  // namespace edgebench
