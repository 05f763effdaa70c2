// Scalar reference kernels for the feature hot path: plain per-pixel FAST,
// loop-carried Hamming distance and an unpacked brute-force matcher. They
// exist only so the randomized equivalence tests in test_hotpath.cpp can
// pin the optimized kernels in src/features bit-exact; nothing in the
// library calls them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "features/detector.hpp"
#include "features/feature.hpp"
#include "features/matcher.hpp"
#include "image/image.hpp"

namespace edgeis::feat::reference {

/// Loop-carried popcount over the four descriptor words.
[[nodiscard]] inline int hamming_distance_reference(
    const Descriptor& a, const Descriptor& b) noexcept {
  int d = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    d += __builtin_popcountll(a.bits[i] ^ b.bits[i]);
  }
  return d;
}

namespace detail {

// Bresenham circle of radius 3 used by FAST (16 offsets, clockwise).
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

// Sum of the above-threshold contrasts around the circle.
inline float corner_score_reference(const img::GrayImage& im, int x, int y,
                                    int threshold) {
  const int c = im.at(x, y);
  float score = 0.0f;
  for (const auto& off : kCircle) {
    const int v = im.at(x + off[0], y + off[1]);
    const int d = std::abs(v - c);
    if (d > threshold) score += static_cast<float>(d - threshold);
  }
  return score;
}

inline bool is_corner_reference(const img::GrayImage& im, int x, int y,
                                int threshold, int min_consecutive) {
  const int c = im.at(x, y);
  const int hi = c + threshold;
  const int lo = c - threshold;

  // Quick reject using the 4 compass points: at least 3 of them must be
  // consistently brighter or darker for a 9-consecutive arc to exist.
  int brighter4 = 0, darker4 = 0;
  for (int i : {0, 4, 8, 12}) {
    const int v = im.at(x + kCircle[i][0], y + kCircle[i][1]);
    brighter4 += (v > hi) ? 1 : 0;
    darker4 += (v < lo) ? 1 : 0;
  }
  if (brighter4 < 3 && darker4 < 3) return false;

  // Full segment test over the doubled circle to handle wrap-around.
  int run_bright = 0, run_dark = 0;
  for (int i = 0; i < 32; ++i) {
    const auto& off = kCircle[i % 16];
    const int v = im.at(x + off[0], y + off[1]);
    run_bright = (v > hi) ? run_bright + 1 : 0;
    run_dark = (v < lo) ? run_dark + 1 : 0;
    if (run_bright >= min_consecutive || run_dark >= min_consecutive) {
      return true;
    }
  }
  return false;
}

}  // namespace detail

/// Per-pixel FAST with scattered im.at() loads, then score-ordered
/// non-maximum suppression and grid-bucketed retention.
inline std::vector<Keypoint> detect_fast_reference(
    const img::GrayImage& image, const DetectorOptions& opts = {}) {
  std::vector<Keypoint> raw;
  const int border = 4;
  for (int y = border; y < image.height() - border; ++y) {
    for (int x = border; x < image.width() - border; ++x) {
      if (!detail::is_corner_reference(image, x, y, opts.threshold,
                                       opts.min_consecutive)) {
        continue;
      }
      Keypoint kp;
      kp.pixel = {static_cast<double>(x), static_cast<double>(y)};
      kp.score = detail::corner_score_reference(image, x, y, opts.threshold);
      raw.push_back(kp);
    }
  }

  std::sort(raw.begin(), raw.end(), [](const Keypoint& a, const Keypoint& b) {
    return a.score > b.score;
  });
  const int w = image.width();
  const int h = image.height();
  std::vector<std::uint8_t> taken(
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0);
  std::vector<Keypoint> nms;
  for (const auto& kp : raw) {
    const int x = static_cast<int>(kp.pixel.x);
    const int y = static_cast<int>(kp.pixel.y);
    if (taken[static_cast<std::size_t>(y * w + x)]) continue;
    nms.push_back(kp);
    const int r = opts.nms_radius;
    for (int ty = std::max(0, y - r); ty <= std::min(h - 1, y + r); ++ty) {
      for (int tx = std::max(0, x - r); tx <= std::min(w - 1, x + r); ++tx) {
        taken[static_cast<std::size_t>(ty * w + tx)] = 1;
      }
    }
  }

  const double cell_w = static_cast<double>(w) / opts.grid_cols;
  const double cell_h = static_cast<double>(h) / opts.grid_rows;
  std::vector<int> cell_counts(
      static_cast<std::size_t>(opts.grid_cols * opts.grid_rows), 0);
  std::vector<Keypoint> kept;
  for (const auto& kp : nms) {
    const int cx = std::min(opts.grid_cols - 1,
                            static_cast<int>(kp.pixel.x / cell_w));
    const int cy = std::min(opts.grid_rows - 1,
                            static_cast<int>(kp.pixel.y / cell_h));
    int& count =
        cell_counts[static_cast<std::size_t>(cy * opts.grid_cols + cx)];
    if (count >= opts.max_per_cell) continue;
    ++count;
    Keypoint k = kp;
    k.angle = compute_orientation(image, static_cast<int>(kp.pixel.x),
                                  static_cast<int>(kp.pixel.y));
    kept.push_back(k);
  }
  return kept;
}

/// Plain double loop over every pair: best and second-best per query, the
/// ratio test (a lone candidate is unambiguous), then the mutual-best
/// cross check. Matches come out in train-index order.
inline std::vector<Match> match_brute_force_reference(
    std::span<const Feature> set0, std::span<const Feature> set1,
    const MatchOptions& opts = {}) {
  if (set0.empty() || set1.empty()) return {};
  constexpr int kNone = 1 << 30;

  std::vector<int> best1(set0.size(), -1);
  std::vector<int> best_dist(set0.size(), kNone);
  std::vector<bool> accepted(set0.size(), false);
  for (std::size_t i = 0; i < set0.size(); ++i) {
    int best = -1, bd = kNone, sd = kNone;
    for (std::size_t j = 0; j < set1.size(); ++j) {
      const int d = hamming_distance_reference(set0[i].desc, set1[j].desc);
      if (d < bd) {
        sd = bd;
        bd = d;
        best = static_cast<int>(j);
      } else if (d < sd) {
        sd = d;
      }
    }
    best1[i] = best;
    best_dist[i] = bd;
    accepted[i] = best >= 0 && bd <= opts.max_distance &&
                  (sd == kNone || static_cast<double>(bd) <
                                      opts.ratio * static_cast<double>(sd));
  }

  std::vector<int> best0(set1.size(), -1);
  std::vector<int> best0_dist(set1.size(), kNone);
  for (std::size_t i = 0; i < set0.size(); ++i) {
    if (!accepted[i]) continue;
    const auto j = static_cast<std::size_t>(best1[i]);
    if (best_dist[i] < best0_dist[j]) {
      best0_dist[j] = best_dist[i];
      best0[j] = static_cast<int>(i);
    }
  }

  std::vector<Match> out;
  for (std::size_t j = 0; j < set1.size(); ++j) {
    if (best0[j] >= 0) {
      out.push_back({static_cast<std::size_t>(best0[j]), j, best0_dist[j]});
    }
  }
  return out;
}

}  // namespace edgeis::feat::reference
