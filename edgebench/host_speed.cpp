#include "host_speed.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>

namespace edgebench {

namespace {

constexpr int kQueries = 64;
constexpr int kCandidates = 512;
constexpr int kWords = 4;  // 256-bit descriptors

double clock_ms(clockid_t id) {
  timespec t{};
  clock_gettime(id, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) * 1e-6;
}

double wall_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

SpeedProbe::SpeedProbe() : descriptors_(kCandidates * kWords) {
  std::uint64_t z = 0x2545f4914f6cdd1dULL;  // xorshift64, fixed seed
  for (auto& d : descriptors_) {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    d = z;
  }
}

[[gnu::noinline, gnu::aligned(64)]] std::uint64_t SpeedProbe::kernel(
    int queries) const {
  const std::uint64_t* desc = descriptors_.data();
  std::uint64_t total = 0;
  for (int q = 0; q < queries; ++q) {
    const std::uint64_t* a = desc + q * kWords;
    int best = 1 << 30;
    for (int c = 0; c < kCandidates; ++c) {
      const std::uint64_t* b = desc + c * kWords;
      const int d = __builtin_popcountll(a[0] ^ b[0]) +
                    __builtin_popcountll(a[1] ^ b[1]) +
                    __builtin_popcountll(a[2] ^ b[2]) +
                    __builtin_popcountll(a[3] ^ b[3]);
      best = std::min(best, d);
    }
    total += static_cast<std::uint64_t>(best);
  }
  return total;
}

double SpeedProbe::sample() {
  const double wall0 = wall_ms();
  // Untimed pass: brings the descriptors back into L1 after the workload
  // evicted them, so the timed pass sees the core, not the program's
  // cache footprint.
  checksum_ += kernel(1);
  const double cpu0 = thread_cpu_ms();
  checksum_ += kernel(kQueries);
  const double cpu_ms = thread_cpu_ms() - cpu0;
  total_cpu_ms_ += cpu_ms;
  total_wall_ms_ += wall_ms() - wall0;
  ++samples_;
  return cpu_ms;
}

double SpeedProbe::mean_ms() const {
  return samples_ > 0 ? total_cpu_ms_ / samples_ : 0.0;
}

double reference_ms(double cpu_ms, double probe_ms) {
  return probe_ms > 0.0 ? cpu_ms * kProbeNominalMs / probe_ms : 0.0;
}

double normalized_frames_per_s(long long frames, double cpu_ms,
                               double probe_mean_ms) {
  const double ms = reference_ms(cpu_ms, probe_mean_ms);
  return ms > 0.0 ? static_cast<double>(frames) / (ms / 1000.0) : 0.0;
}

}  // namespace edgebench
