// Feature types shared by the detector, descriptor and matcher.
#pragma once

#include <array>
#include <cstdint>

#include "geometry/vec.hpp"

namespace edgeis::feat {

/// 256-bit binary descriptor (BRIEF-style, as in ORB).
struct Descriptor {
  std::array<std::uint64_t, 4> bits{};

  [[nodiscard]] int hamming_distance(const Descriptor& o) const noexcept {
    // All four words unrolled as independent XOR+popcount chains: the
    // scalar reference (tests/reference_kernels.hpp) accumulates through a
    // loop-carried add, this form lets the compiler schedule the four popcounts in parallel
    // (and fuse them into vector popcount where available).
    return __builtin_popcountll(bits[0] ^ o.bits[0]) +
           __builtin_popcountll(bits[1] ^ o.bits[1]) +
           __builtin_popcountll(bits[2] ^ o.bits[2]) +
           __builtin_popcountll(bits[3] ^ o.bits[3]);
  }
};

/// Hamming distance between a query held in registers and one packed
/// 4-word descriptor, with an early-out: once the first half already
/// reaches `bound` the remaining words cannot bring the total back under
/// it (popcounts are non-negative), so callers scanning for a running
/// best can skip them. Returns a value >= bound in that case.
[[nodiscard]] inline int hamming_distance_bounded(
    std::uint64_t q0, std::uint64_t q1, std::uint64_t q2, std::uint64_t q3,
    const std::uint64_t* words, int bound) noexcept {
  const int half = __builtin_popcountll(q0 ^ words[0]) +
                   __builtin_popcountll(q1 ^ words[1]);
  if (half >= bound) return half;
  return half + __builtin_popcountll(q2 ^ words[2]) +
         __builtin_popcountll(q3 ^ words[3]);
}

struct Keypoint {
  geom::Vec2 pixel;       // position at full image resolution
  float score = 0.0f;     // corner response
  float angle = 0.0f;     // orientation in radians (intensity centroid)
  std::uint8_t octave = 0;  // pyramid level the point was detected at
};

struct Feature {
  Keypoint kp;
  Descriptor desc;
};

}  // namespace edgeis::feat
