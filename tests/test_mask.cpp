// Unit tests for masks: boxes, IoU, contour tracing, rasterization,
// morphology, and the extent-aware ops against full-frame references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mask/mask.hpp"
#include "runtime/rng.hpp"

using namespace edgeis::mask;

namespace {

InstanceMask filled_rect(int w, int h, const Box& b) {
  InstanceMask m(w, h);
  for (int y = b.y0; y < b.y1; ++y) {
    for (int x = b.x0; x < b.x1; ++x) m.set(x, y);
  }
  return m;
}

InstanceMask filled_disk(int w, int h, int cx, int cy, int r) {
  InstanceMask m(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) m.set(x, y);
    }
  }
  return m;
}

}  // namespace

TEST(Box, AreaAndIntersection) {
  const Box a{0, 0, 10, 10}, b{5, 5, 15, 15};
  EXPECT_EQ(a.area(), 100);
  EXPECT_EQ(a.intersect(b).area(), 25);
  EXPECT_NEAR(a.iou(b), 25.0 / 175.0, 1e-12);
}

TEST(Box, DisjointIouZero) {
  const Box a{0, 0, 5, 5}, b{10, 10, 20, 20};
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_DOUBLE_EQ(a.iou(b), 0.0);
}

TEST(Box, IdenticalIouOne) {
  const Box a{2, 3, 8, 9};
  EXPECT_DOUBLE_EQ(a.iou(a), 1.0);
}

TEST(Box, InflatedClipped) {
  const Box a{2, 2, 8, 8};
  const Box big = a.inflated(5, 20, 20);
  EXPECT_EQ(big.x0, 0);
  EXPECT_EQ(big.y1, 13);
}

TEST(Box, Unite) {
  const Box a{0, 0, 4, 4}, b{10, 10, 12, 12};
  const Box u = a.unite(b);
  EXPECT_EQ(u.x0, 0);
  EXPECT_EQ(u.x1, 12);
  EXPECT_EQ(Box{}.unite(a).area(), a.area());
}

TEST(InstanceMask, PixelCountAndBounds) {
  const auto m = filled_rect(20, 20, {5, 6, 9, 10});
  EXPECT_EQ(m.pixel_count(), 16);
  const auto bb = m.bounding_box();
  ASSERT_TRUE(bb.has_value());
  EXPECT_EQ(bb->x0, 5);
  EXPECT_EQ(bb->y1, 10);
}

TEST(InstanceMask, EmptyBoundingBox) {
  const InstanceMask m(10, 10);
  EXPECT_FALSE(m.bounding_box().has_value());
}

TEST(InstanceMask, IouOverlap) {
  const auto a = filled_rect(20, 20, {0, 0, 10, 10});
  const auto b = filled_rect(20, 20, {5, 0, 15, 10});
  EXPECT_NEAR(a.iou(b), 50.0 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.iou(a), 1.0);
}

TEST(InstanceMask, OutOfBoundsReadsFalse) {
  const auto m = filled_rect(10, 10, {0, 0, 10, 10});
  EXPECT_FALSE(m.get(-1, 0));
  EXPECT_FALSE(m.get(0, 10));
}

TEST(InstanceMask, DilateErodeInverse) {
  const auto m = filled_rect(30, 30, {10, 10, 20, 20});
  const auto d = m.dilated(2);
  EXPECT_GT(d.pixel_count(), m.pixel_count());
  const auto back = d.eroded(2);
  // Dilation then erosion of a convex shape recovers it exactly.
  EXPECT_DOUBLE_EQ(back.iou(m), 1.0);
}

TEST(InstanceMask, ErodeShrinksToNothing) {
  const auto m = filled_rect(10, 10, {4, 4, 6, 6});
  EXPECT_EQ(m.eroded(2).pixel_count(), 0);
}

TEST(Contours, RectangleContourLength) {
  const auto m = filled_rect(20, 20, {5, 5, 15, 15});
  const auto cs = find_contours(m);
  ASSERT_EQ(cs.size(), 1u);
  // 10x10 square boundary: 4*10 - 4 = 36 pixels.
  EXPECT_EQ(cs[0].size(), 36u);
}

TEST(Contours, DiskContourClosed) {
  const auto m = filled_disk(40, 40, 20, 20, 10);
  const auto cs = find_contours(m);
  ASSERT_EQ(cs.size(), 1u);
  // Contour length should approximate the circumference.
  EXPECT_GT(cs[0].size(), 40u);
  EXPECT_LT(cs[0].size(), 100u);
  // Adjacent contour pixels must be 8-connected.
  for (std::size_t i = 1; i < cs[0].size(); ++i) {
    EXPECT_LE(std::abs(cs[0][i].x - cs[0][i - 1].x), 1.0);
    EXPECT_LE(std::abs(cs[0][i].y - cs[0][i - 1].y), 1.0);
  }
}

TEST(Contours, TwoComponentsTwoContours) {
  InstanceMask m(30, 30);
  for (int y = 2; y < 8; ++y)
    for (int x = 2; x < 8; ++x) m.set(x, y);
  for (int y = 15; y < 25; ++y)
    for (int x = 15; x < 25; ++x) m.set(x, y);
  EXPECT_EQ(find_contours(m).size(), 2u);
}

TEST(Contours, EmptyMaskNoContours) {
  const InstanceMask m(10, 10);
  EXPECT_TRUE(find_contours(m).empty());
}

TEST(Rasterize, TriangleArea) {
  const Contour tri = {{10, 10}, {50, 10}, {10, 50}};
  const auto m = rasterize_polygon(tri, 64, 64);
  // Area of the right triangle is 800; allow boundary slack.
  EXPECT_NEAR(static_cast<double>(m.pixel_count()), 800.0, 60.0);
}

TEST(Rasterize, ContourRoundTrip) {
  const auto original = filled_disk(64, 64, 32, 32, 16);
  const auto cs = find_contours(original);
  ASSERT_EQ(cs.size(), 1u);
  const auto rebuilt = rasterize_polygon(cs[0], 64, 64);
  EXPECT_GT(rebuilt.iou(original), 0.93);
}

TEST(Rasterize, DegenerateInputsEmpty) {
  EXPECT_EQ(rasterize_polygon({}, 10, 10).pixel_count(), 0);
  EXPECT_EQ(rasterize_polygon({{1, 1}, {2, 2}}, 10, 10).pixel_count(), 0);
}

TEST(Rasterize, ClipsOutsideFrame) {
  const Contour square = {{-20, -20}, {30, -20}, {30, 30}, {-20, 30}};
  const auto m = rasterize_polygon(square, 20, 20);
  // Only the in-frame quadrant is filled.
  EXPECT_GT(m.pixel_count(), 350);
  EXPECT_LE(m.pixel_count(), 400);
}

TEST(MaskFromIds, SelectsMatchingPixels) {
  edgeis::img::IdImage ids(8, 8, 0);
  ids.at(2, 2) = 5;
  ids.at(3, 2) = 5;
  ids.at(4, 4) = 9;
  const auto m5 = mask_from_id_image(ids, 5);
  EXPECT_EQ(m5.pixel_count(), 2);
  EXPECT_TRUE(m5.get(2, 2));
  EXPECT_FALSE(m5.get(4, 4));
  EXPECT_EQ(m5.instance_id, 5);
}

// Regression: a pinched (8-connected) boundary used to send the Moore
// tracer into a cycle that never revisited its start state, so it only
// stopped at the width*height*4 safety cap — producing million-vertex
// "contours" for masks of a few tens of kilopixels (and, downstream,
// megabyte mask payloads that stretched simulated downlinks by seconds).
TEST(Contours, PinchedBoundaryTerminatesWithBoundedContour) {
  // Two solid squares joined only through a diagonal pixel pair: the
  // boundary walk passes through the pinch twice before closing.
  InstanceMask m(16, 16);
  for (int y = 1; y <= 6; ++y) {
    for (int x = 1; x <= 6; ++x) m.set(x, y);
  }
  for (int y = 7; y <= 12; ++y) {
    for (int x = 7; x <= 12; ++x) m.set(x, y);
  }
  const auto contours = find_contours(m);
  // One walk through the pinch or one loop per square are both sane; a
  // runaway trace is not.
  ASSERT_GE(contours.size(), 1u);
  ASSERT_LE(contours.size(), 2u);
  for (const auto& c : contours) {
    // The whole component has 72 pixels; a sane trace visits each boundary
    // pixel at most a couple of times. The buggy tracer returned ~1000
    // vertices here (the 16*16*4 step cap).
    EXPECT_LE(c.size(), 64u);
    // Every vertex lies on a foreground pixel and consecutive vertices are
    // Moore neighbors (the trace is a connected walk on the boundary).
    for (std::size_t i = 0; i < c.size(); ++i) {
      const int x = static_cast<int>(c[i].x), y = static_cast<int>(c[i].y);
      EXPECT_TRUE(m.get(x, y)) << "vertex off-mask at " << x << "," << y;
      const auto& n = c[(i + 1) % c.size()];
      EXPECT_LE(std::abs(static_cast<int>(n.x) - x), 1);
      EXPECT_LE(std::abs(static_cast<int>(n.y) - y), 1);
    }
  }
}

TEST(Contours, NoisyBlobContourStaysProportionalToPerimeter) {
  // A disc whose boundary is perturbed pixel-by-pixel — the shape that
  // triggered runaway traces when corrupt_mask() rasterized noisy
  // polygons. Vertices must scale with the perimeter, not the area.
  InstanceMask m(200, 200);
  for (int y = 0; y < 200; ++y) {
    for (int x = 0; x < 200; ++x) {
      const double dx = x - 100.0, dy = y - 100.0;
      const double wobble =
          6.0 * std::sin(0.9 * std::atan2(dy, dx) * 7.0);
      if (std::sqrt(dx * dx + dy * dy) < 70.0 + wobble) m.set(x, y);
    }
  }
  std::size_t verts = 0;
  for (const auto& c : find_contours(m)) verts += c.size();
  EXPECT_GT(verts, 100u);
  EXPECT_LE(verts, 4u * 2u * 220u);  // O(perimeter), far below area ~15k
}

// ---------------------------------------------------------------------------
// Extent-aware operations against full-frame references.
//
// InstanceMask keeps a conservative extent of its set pixels and every
// operation scans only inside it. The references below are the plain
// full-frame scans, written against the public get/set API only; each
// extent-aware op must agree with its reference bit for bit, and every
// mask it returns must keep all set pixels inside its extent.

namespace {

using edgeis::rt::Rng;

int rand_int(Rng& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.uniform_int(
                  static_cast<std::uint64_t>(hi - lo + 1)));
}

long long ref_pixel_count(const InstanceMask& m) {
  long long c = 0;
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) c += m.get(x, y) ? 1 : 0;
  }
  return c;
}

std::optional<Box> ref_bounding_box(const InstanceMask& m) {
  Box b{m.width(), m.height(), 0, 0};
  bool any = false;
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      if (!m.get(x, y)) continue;
      any = true;
      b.x0 = std::min(b.x0, x);
      b.y0 = std::min(b.y0, y);
      b.x1 = std::max(b.x1, x + 1);
      b.y1 = std::max(b.y1, y + 1);
    }
  }
  if (!any) return std::nullopt;
  return b;
}

double ref_iou(const InstanceMask& a, const InstanceMask& b) {
  long long inter = 0, uni = 0;
  const int w = std::max(a.width(), b.width());
  const int h = std::max(a.height(), b.height());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      inter += (a.get(x, y) && b.get(x, y)) ? 1 : 0;
      uni += (a.get(x, y) || b.get(x, y)) ? 1 : 0;
    }
  }
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

InstanceMask ref_translated(const InstanceMask& m, int dx, int dy) {
  InstanceMask out(m.width(), m.height());
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      if (m.get(x, y)) out.set(x + dx, y + dy);
    }
  }
  return out;
}

InstanceMask ref_dilated(const InstanceMask& m, int r) {
  InstanceMask out = m;
  for (int pass = 0; pass < r; ++pass) {
    InstanceMask next = out;
    for (int y = 0; y < m.height(); ++y) {
      for (int x = 0; x < m.width(); ++x) {
        if (out.get(x, y)) continue;
        if (out.get(x - 1, y) || out.get(x + 1, y) || out.get(x, y - 1) ||
            out.get(x, y + 1)) {
          next.set(x, y);
        }
      }
    }
    out = std::move(next);
  }
  return out;
}

InstanceMask ref_eroded(const InstanceMask& m, int r) {
  InstanceMask out = m;
  for (int pass = 0; pass < r; ++pass) {
    InstanceMask next = out;
    for (int y = 0; y < m.height(); ++y) {
      for (int x = 0; x < m.width(); ++x) {
        if (!out.get(x, y)) continue;
        const bool interior = x > 0 && y > 0 && x < m.width() - 1 &&
                              y < m.height() - 1 && out.get(x - 1, y) &&
                              out.get(x + 1, y) && out.get(x, y - 1) &&
                              out.get(x, y + 1);
        if (!interior) next.set(x, y, false);
      }
    }
    out = std::move(next);
  }
  return out;
}

// Moore-neighbor boundary trace with Jacob's stopping criterion, as in
// mask.cpp.
Contour ref_trace_boundary(const InstanceMask& m, int sx, int sy) {
  constexpr int kMoore[8][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1},
                                {1, 0},  {1, 1},   {0, 1},  {-1, 1}};
  Contour contour;
  contour.push_back({static_cast<double>(sx), static_cast<double>(sy)});
  int cx = sx, cy = sy, backtrack = 0, fx = -1, fy = -1;
  const std::size_t max_steps = static_cast<std::size_t>(m.width()) *
                                    static_cast<std::size_t>(m.height()) * 4 +
                                16;
  for (std::size_t step = 0; step < max_steps; ++step) {
    bool found = false;
    int nx = 0, ny = 0, ndir = 0;
    for (int k = 1; k <= 8; ++k) {
      const int dir = (backtrack + k) % 8;
      if (m.get(cx + kMoore[dir][0], cy + kMoore[dir][1])) {
        nx = cx + kMoore[dir][0];
        ny = cy + kMoore[dir][1];
        ndir = dir;
        found = true;
        break;
      }
    }
    if (!found) break;
    if (step == 0) {
      fx = nx;
      fy = ny;
    } else if (cx == sx && cy == sy && nx == fx && ny == fy) {
      contour.pop_back();
      break;
    }
    contour.push_back({static_cast<double>(nx), static_cast<double>(ny)});
    backtrack = (ndir % 2 == 0) ? (ndir + 6) % 8 : (ndir + 5) % 8;
    cx = nx;
    cy = ny;
  }
  return contour;
}

std::vector<Contour> ref_find_contours(const InstanceMask& m) {
  std::vector<Contour> contours;
  const int w = m.width(), h = m.height();
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(w * h), 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!m.get(x, y) || seen[static_cast<std::size_t>(y * w + x)]) continue;
      if (m.get(x - 1, y)) continue;
      Contour c = ref_trace_boundary(m, x, y);
      std::vector<std::pair<int, int>> stack{{x, y}};
      while (!stack.empty()) {
        const auto [px, py] = stack.back();
        stack.pop_back();
        if (!m.get(px, py) || seen[static_cast<std::size_t>(py * w + px)]) {
          continue;
        }
        seen[static_cast<std::size_t>(py * w + px)] = 1;
        stack.push_back({px - 1, py});
        stack.push_back({px + 1, py});
        stack.push_back({px, py - 1});
        stack.push_back({px, py + 1});
      }
      if (c.size() >= 3) contours.push_back(std::move(c));
    }
  }
  return contours;
}

// Every row of the frame, even-odd fill, spans clamped in double (the
// int cast of an unclamped huge crossing would be undefined).
InstanceMask ref_rasterize(const Contour& poly, int w, int h) {
  InstanceMask out(w, h);
  const std::size_t n = poly.size();
  if (n < 3) return out;
  for (int y = 0; y < h; ++y) {
    const double fy = y + 0.5;
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = poly[i];
      const auto& b = poly[(i + 1) % n];
      if ((a.y <= fy && b.y > fy) || (b.y <= fy && a.y > fy)) {
        const double x = a.x + (fy - a.y) / (b.y - a.y) * (b.x - a.x);
        if (!std::isnan(x)) xs.push_back(x);
      }
    }
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const double x0 = std::max(0.0, std::ceil(xs[i] - 0.5));
      const double x1 = std::min(w - 1.0, std::floor(xs[i + 1] - 0.5));
      for (double x = x0; x <= x1; x += 1.0) out.set(static_cast<int>(x), y);
    }
  }
  return out;
}

InstanceMask ref_mask_from_ids(const edgeis::img::IdImage& ids,
                               std::uint16_t id) {
  InstanceMask out(ids.width(), ids.height());
  for (int y = 0; y < ids.height(); ++y) {
    for (int x = 0; x < ids.width(); ++x) {
      if (ids.at(x, y) == id) out.set(x, y);
    }
  }
  return out;
}

/// No set pixel may lie outside the extent.
::testing::AssertionResult extent_holds(const InstanceMask& m) {
  const Box& e = m.extent();
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      if (m.get(x, y) && !e.contains(x, y)) {
        return ::testing::AssertionFailure()
               << "set pixel (" << x << "," << y << ") outside extent ["
               << e.x0 << "," << e.x1 << ")x[" << e.y0 << "," << e.y1 << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Same size, same bits, and the extent invariant holds on `actual`.
::testing::AssertionResult same_mask(const InstanceMask& actual,
                                     const InstanceMask& expected) {
  if (actual.width() != expected.width() ||
      actual.height() != expected.height()) {
    return ::testing::AssertionFailure() << "size differs";
  }
  for (int y = 0; y < actual.height(); ++y) {
    for (int x = 0; x < actual.width(); ++x) {
      if (actual.get(x, y) != expected.get(x, y)) {
        return ::testing::AssertionFailure()
               << "bit differs at (" << x << "," << y << ")";
      }
    }
  }
  return extent_holds(actual);
}

/// A random mask: a few rectangles and disks (some crossing the frame
/// border), salt noise, and random clears that leave the extent loose.
InstanceMask random_mask(Rng& rng, int w, int h) {
  InstanceMask m(w, h);
  const int shapes = rand_int(rng, 0, 4);
  for (int s = 0; s < shapes; ++s) {
    const int cx = rand_int(rng, -8, w + 8), cy = rand_int(rng, -8, h + 8);
    const int r = rand_int(rng, 1, std::max(2, std::min(w, h) / 3));
    const bool disk = rng.uniform() < 0.5;
    for (int y = cy - r; y <= cy + r; ++y) {
      for (int x = cx - r; x <= cx + r; ++x) {
        if (!disk || (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) {
          m.set(x, y);  // out-of-frame sets are no-ops
        }
      }
    }
  }
  const int salt = rand_int(rng, 0, 20);
  for (int i = 0; i < salt; ++i) {
    const int x = rand_int(rng, 0, w - 1), y = rand_int(rng, 0, h - 1);
    m.set(x, y);
  }
  const int clears = rand_int(rng, 0, 200);
  for (int i = 0; i < clears; ++i) {
    const int x = rand_int(rng, 0, w - 1), y = rand_int(rng, 0, h - 1);
    m.set(x, y, false);
  }
  return m;
}

std::vector<InstanceMask> random_masks(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<InstanceMask> out;
  for (int i = 0; i < count; ++i) {
    const int w = rand_int(rng, 1, 72), h = rand_int(rng, 1, 56);
    out.push_back(random_mask(rng, w, h));
  }
  out.emplace_back(40, 30);  // empty
  out.emplace_back();        // zero-sized
  return out;
}

bool same_contours(const std::vector<Contour>& a,
                   const std::vector<Contour>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      if (a[i][k].x != b[i][k].x || a[i][k].y != b[i][k].y) return false;
    }
  }
  return true;
}

}  // namespace

TEST(MaskExtent, RandomSetClearKeepsEverySetPixelInside) {
  Rng rng(101);
  InstanceMask m(50, 40);
  EXPECT_TRUE(m.extent().empty());
  for (int i = 0; i < 4000; ++i) {
    // Include out-of-frame coordinates: those writes must be no-ops.
    const int x = rand_int(rng, -3, 52), y = rand_int(rng, -3, 42);
    m.set(x, y, rng.uniform() < 0.6);
    if (i % 97 == 0) {
      ASSERT_TRUE(extent_holds(m)) << "after op " << i;
    }
  }
  EXPECT_TRUE(extent_holds(m));
  EXPECT_TRUE(InstanceMask().extent().empty());
}

TEST(MaskExtent, SingleSetGivesOnePixelExtent) {
  InstanceMask m(10, 10);
  m.set(3, 7);
  EXPECT_EQ(m.extent(), (Box{3, 7, 4, 8}));
  m.set(3, 7, false);  // clearing leaves the bound as it is
  EXPECT_EQ(m.extent(), (Box{3, 7, 4, 8}));
  EXPECT_EQ(m.pixel_count(), 0);
  EXPECT_FALSE(m.bounding_box().has_value());
}

TEST(MaskExtent, CountAndBoundingBoxMatchFullFrame) {
  for (const auto& m : random_masks(1, 300)) {
    EXPECT_TRUE(extent_holds(m));
    EXPECT_EQ(m.pixel_count(), ref_pixel_count(m));
    EXPECT_EQ(m.bounding_box(), ref_bounding_box(m));
  }
}

TEST(MaskExtent, IouMatchesFullFrameIncludingMixedSizes) {
  const auto masks = random_masks(2, 120);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    for (std::size_t j = i; j < masks.size(); j += 7) {
      EXPECT_EQ(masks[i].iou(masks[j]), ref_iou(masks[i], masks[j]))
          << i << " vs " << j;
      EXPECT_EQ(masks[j].iou(masks[i]), ref_iou(masks[j], masks[i]));
    }
  }
}

TEST(MaskExtent, TranslatedMatchesFullFrameIncludingOffFrameShifts) {
  Rng rng(3);
  for (const auto& m : random_masks(3, 150)) {
    for (int k = 0; k < 4; ++k) {
      // Shifts up to twice the frame size push some or all pixels out.
      const int dx = rand_int(rng, -2 * m.width() - 1, 2 * m.width() + 1);
      const int dy = rand_int(rng, -2 * m.height() - 1, 2 * m.height() + 1);
      const auto t = m.translated(dx, dy);
      EXPECT_TRUE(same_mask(t, ref_translated(m, dx, dy)))
          << "shift " << dx << "," << dy;
      EXPECT_EQ(t.pixel_count(), ref_pixel_count(t));
    }
  }
}

TEST(MaskExtent, DilateAndErodeMatchFullFrame) {
  for (const auto& m : random_masks(4, 120)) {
    for (int r : {0, 1, 2, 3}) {
      const auto d = m.dilated(r);
      const auto e = m.eroded(r);
      EXPECT_TRUE(same_mask(d, ref_dilated(m, r))) << "dilate " << r;
      EXPECT_TRUE(same_mask(e, ref_eroded(m, r))) << "erode " << r;
      EXPECT_EQ(d.pixel_count(), ref_pixel_count(d));
      EXPECT_EQ(e.bounding_box(), ref_bounding_box(e));
    }
  }
}

TEST(MaskExtent, FindContoursMatchesFullFrameOrderAndPoints) {
  for (const auto& m : random_masks(5, 300)) {
    EXPECT_TRUE(same_contours(find_contours(m), ref_find_contours(m)));
  }
  // Loose extents: contours of eroded and shifted masks.
  for (const auto& m : random_masks(6, 80)) {
    const auto e = m.eroded(1);
    const auto t = m.translated(3, -2);
    EXPECT_TRUE(same_contours(find_contours(e), ref_find_contours(e)));
    EXPECT_TRUE(same_contours(find_contours(t), ref_find_contours(t)));
  }
}

TEST(MaskExtent, RasterizeMatchesFullFrameOnRandomPolygons) {
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const int w = rand_int(rng, 1, 80), h = rand_int(rng, 1, 60);
    // Vertices range well past the frame on every side. Every other
    // polygon sits on the half-pixel grid, where row centres land exactly
    // on vertices and the first and last filled rows are decided by ties.
    const bool half_grid = i % 2 == 1;
    Contour poly(static_cast<std::size_t>(rand_int(rng, 0, 9)));
    for (auto& p : poly) {
      p = {rng.uniform(-1.5 * w, 2.5 * w), rng.uniform(-1.5 * h, 2.5 * h)};
      if (half_grid) p = {std::round(2 * p.x) / 2, std::round(2 * p.y) / 2};
    }
    const auto m = rasterize_polygon(poly, w, h);
    EXPECT_TRUE(same_mask(m, ref_rasterize(poly, w, h))) << "polygon " << i;
    EXPECT_EQ(m.pixel_count(), ref_pixel_count(m));
  }
}

TEST(MaskExtent, RasterizeContourRoundTripMatchesFullFrame) {
  for (const auto& m : random_masks(8, 150)) {
    for (const auto& c : find_contours(m)) {
      EXPECT_TRUE(same_mask(rasterize_polygon(c, m.width(), m.height()),
                            ref_rasterize(c, m.width(), m.height())));
    }
  }
}

TEST(MaskExtent, RasterizeDegenerateAndExtremePolygons) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Contour> polys = {
      {{5, 5}, {5, 5}, {5, 5}},                       // one point
      {{1, 1}, {20, 20}, {10, 10}},                   // collinear
      {{2, 4}, {30, 4}, {16, 4}},                     // horizontal line
      {{-50, -50}, {-10, -50}, {-10, -10}},           // fully left/above
      {{10, 100}, {30, 100}, {20, 140}},              // fully below
      {{-1e9, -1e9}, {1e9, -1e9}, {1e9, 1e9}, {-1e9, 1e9}},  // covers all
      {{-1e300, 5}, {1e300, 5}, {0, 25}},             // huge x
      {{10, -1e300}, {30, 1e300}, {5, 20}},           // huge y
      {{0, 0}, {1.7e308, 10}, {-1.7e308, 20}},        // overflowing span
      {{10, 10}, {30, 12}, {nan, 25}, {8, 30}},       // NaN x
      {{10, 10}, {30, nan}, {20, 30}},                // NaN y
      {{nan, nan}, {nan, nan}, {nan, nan}},           // all NaN
      {{10, 10}, {inf, 20}, {10, 30}},                // infinite x
      {{10, -inf}, {30, 12}, {20, inf}},              // infinite y
      {{0, 0}, {65535, 0}, {65535, 65535}, {0, 65535}},  // wire maximum
  };
  for (std::size_t i = 0; i < polys.size(); ++i) {
    const auto m = rasterize_polygon(polys[i], 40, 32);
    EXPECT_TRUE(same_mask(m, ref_rasterize(polys[i], 40, 32))) << "poly " << i;
  }
  EXPECT_EQ(rasterize_polygon(polys[5], 40, 32).pixel_count(), 40 * 32);
  EXPECT_EQ(rasterize_polygon(polys[11], 40, 32).pixel_count(), 0);
}

TEST(MaskExtent, MaskFromIdImageMatchesFullFrame) {
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    const int w = rand_int(rng, 1, 70), h = rand_int(rng, 1, 50);
    edgeis::img::IdImage ids(w, h, 0);
    const int blobs = rand_int(rng, 0, 6);
    for (int b = 0; b < blobs; ++b) {
      const auto id = static_cast<std::uint16_t>(rand_int(rng, 1, 4));
      const int x0 = rand_int(rng, 0, w - 1), y0 = rand_int(rng, 0, h - 1);
      const int x1 = rand_int(rng, x0, w - 1), y1 = rand_int(rng, y0, h - 1);
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) ids.at(x, y) = id;
      }
    }
    for (std::uint16_t id = 0; id <= 5; ++id) {
      const auto m = mask_from_id_image(ids, id);
      EXPECT_TRUE(same_mask(m, ref_mask_from_ids(ids, id)));
      EXPECT_EQ(m.pixel_count(), ref_pixel_count(m));
      EXPECT_EQ(m.bounding_box(), ref_bounding_box(m));
    }
    // One pass for many ids, in the caller's order, repeats and the
    // background id included.
    const std::vector<std::uint16_t> wanted = {3, 1, 0, 5, 3, 2, 4};
    const auto split = split_id_image(ids, wanted);
    ASSERT_EQ(split.size(), wanted.size());
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      EXPECT_EQ(split[k].instance_id, wanted[k]);
      EXPECT_TRUE(same_mask(split[k], ref_mask_from_ids(ids, wanted[k])));
    }
  }
  EXPECT_TRUE(split_id_image(edgeis::img::IdImage(8, 8, 1), {}).empty());
}

TEST(MaskExtent, FullFrameSizedOpsMatchReference) {
  // One frame-sized pass over every op, at the pipeline's 640x480.
  Rng rng(10);
  for (int i = 0; i < 3; ++i) {
    const auto a = random_mask(rng, 640, 480);
    const auto b = random_mask(rng, 640, 480);
    EXPECT_EQ(a.pixel_count(), ref_pixel_count(a));
    EXPECT_EQ(a.bounding_box(), ref_bounding_box(a));
    EXPECT_EQ(a.iou(b), ref_iou(a, b));
    EXPECT_TRUE(same_mask(a.translated(-37, 21), ref_translated(a, -37, 21)));
    EXPECT_TRUE(same_mask(a.dilated(2), ref_dilated(a, 2)));
    EXPECT_TRUE(same_mask(a.eroded(2), ref_eroded(a, 2)));
    const auto cs = find_contours(a);
    EXPECT_TRUE(same_contours(cs, ref_find_contours(a)));
    for (const auto& c : cs) {
      EXPECT_TRUE(same_mask(rasterize_polygon(c, 640, 480),
                            ref_rasterize(c, 640, 480)));
    }
  }
}
