#include "features/detector.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/arena.hpp"

namespace edgeis::feat {
namespace {

// Bresenham circle of radius 3 used by FAST (16 offsets, clockwise).
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

// ---- Back half: NMS + grid-bucketed retention. ---------------------------

std::vector<Keypoint> suppress_and_retain(const img::GrayImage& image,
                                          const DetectorOptions& opts,
                                          std::vector<Keypoint>&& raw) {
  // Non-maximum suppression on a score grid.
  std::sort(raw.begin(), raw.end(),
            [](const Keypoint& a, const Keypoint& b) { return a.score > b.score; });
  rt::ArenaScope scratch;
  const int w = image.width();
  const int h = image.height();
  auto taken = scratch.alloc_filled<std::uint8_t>(
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0);
  std::vector<Keypoint> nms;
  nms.reserve(raw.size());
  for (const auto& kp : raw) {
    const int x = static_cast<int>(kp.pixel.x);
    const int y = static_cast<int>(kp.pixel.y);
    const std::size_t at =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
        static_cast<std::size_t>(x);
    if (taken[at]) continue;
    nms.push_back(kp);
    const int r = opts.nms_radius;
    const int y0 = std::max(0, y - r), y1 = std::min(h - 1, y + r);
    const int x0 = std::max(0, x - r), x1 = std::min(w - 1, x + r);
    for (int ty = y0; ty <= y1; ++ty) {
      const std::size_t off =
          static_cast<std::size_t>(ty) * static_cast<std::size_t>(w);
      std::uint8_t* row = taken.data() + off;
      std::fill(row + x0, row + x1 + 1, std::uint8_t{1});
    }
  }

  // Grid-bucketed retention: keep the strongest per cell so features cover
  // the whole frame rather than clustering on the most textured object.
  const double cell_w = static_cast<double>(w) / opts.grid_cols;
  const double cell_h = static_cast<double>(h) / opts.grid_rows;
  auto cell_counts = scratch.alloc_filled<int>(
      static_cast<std::size_t>(opts.grid_cols * opts.grid_rows), 0);
  std::vector<Keypoint> kept;
  kept.reserve(nms.size());
  for (const auto& kp : nms) {  // already sorted by score desc
    const int cx = std::min(opts.grid_cols - 1,
                            static_cast<int>(kp.pixel.x / cell_w));
    const int cy = std::min(opts.grid_rows - 1,
                            static_cast<int>(kp.pixel.y / cell_h));
    int& count = cell_counts[static_cast<std::size_t>(cy * opts.grid_cols + cx)];
    if (count >= opts.max_per_cell) continue;
    ++count;
    Keypoint k = kp;
    k.angle = compute_orientation(image, static_cast<int>(kp.pixel.x),
                                  static_cast<int>(kp.pixel.y));
    kept.push_back(k);
  }
  return kept;
}

}  // namespace

float compute_orientation(const img::GrayImage& image, int x, int y,
                          int radius) {
  double m01 = 0.0, m10 = 0.0;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > radius * radius) continue;
      const double v = image.at_clamped(x + dx, y + dy);
      m10 += dx * v;
      m01 += dy * v;
    }
  }
  return static_cast<float>(std::atan2(m01, m10));
}

std::vector<Keypoint> detect_fast(const img::GrayImage& image,
                                  const DetectorOptions& opts) {
  const int border = 4;
  const int w = image.width();
  const int h = image.height();
  std::vector<Keypoint> raw;
  if (w <= 2 * border || h <= 2 * border) return raw;

  // Circle taps as linear offsets from the center pixel: one add each
  // instead of a per-tap row*stride multiply through im.at().
  const int stride = w;
  int coff[16];
  for (int k = 0; k < 16; ++k) {
    coff[k] = kCircle[k][1] * stride + kCircle[k][0];
  }

  rt::ArenaScope scratch;
  auto cand = scratch.alloc<std::uint8_t>(static_cast<std::size_t>(w));
  const int t = opts.threshold;

  for (int y = border; y < h - border; ++y) {
    const std::uint8_t* row = image.row(y);
    const std::uint8_t* row_n = image.row(y - 3);
    const std::uint8_t* row_s = image.row(y + 3);

    // Compass prefilter as a branchless row sweep the compiler can
    // vectorize: at least 3 of the 4 compass taps must be consistently
    // brighter or darker for a 9-consecutive arc to exist. This is the
    // same quick-reject as the reference, hoisted out of the per-pixel
    // scattered-load path — typically >95% of pixels die here.
    for (int x = border; x < w - border; ++x) {
      const int c = row[x];
      const int hi = c + t;
      const int lo = c - t;
      const int brighter = (row_n[x] > hi) + (row[x + 3] > hi) +
                           (row_s[x] > hi) + (row[x - 3] > hi);
      const int darker = (row_n[x] < lo) + (row[x + 3] < lo) +
                         (row_s[x] < lo) + (row[x - 3] < lo);
      cand[x] = static_cast<std::uint8_t>((brighter >= 3) | (darker >= 3));
    }

    for (int x = border; x < w - border; ++x) {
      if (!cand[x]) continue;
      const std::uint8_t* center = row + x;
      const int c = *center;
      const int hi = c + t;
      const int lo = c - t;
      // Row-wise loads of the full circle once, then the segment test and
      // the score both run over the register-resident copy.
      int v[16];
      for (int k = 0; k < 16; ++k) v[k] = center[coff[k]];

      bool corner = false;
      int run_bright = 0, run_dark = 0;
      for (int i = 0; i < 32; ++i) {
        const int vi = v[i & 15];
        run_bright = (vi > hi) ? run_bright + 1 : 0;
        run_dark = (vi < lo) ? run_dark + 1 : 0;
        if (run_bright >= opts.min_consecutive ||
            run_dark >= opts.min_consecutive) {
          corner = true;
          break;
        }
      }
      if (!corner) continue;

      float score = 0.0f;
      for (int k = 0; k < 16; ++k) {
        const int d = std::abs(v[k] - c);
        if (d > t) score += static_cast<float>(d - t);
      }
      Keypoint kp;
      kp.pixel = {static_cast<double>(x), static_cast<double>(y)};
      kp.score = score;
      raw.push_back(kp);
    }
  }
  return suppress_and_retain(image, opts, std::move(raw));
}

}  // namespace edgeis::feat
