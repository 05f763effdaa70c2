#include "mask/mask.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "runtime/arena.hpp"

namespace edgeis::mask {

void InstanceMask::fill_span(int y, int x0, int x1) {
  std::uint8_t* r = bits_.row(y);
  std::fill(r + x0, r + x1, std::uint8_t{1});
  grow({x0, y, x1, y + 1});
}

long long InstanceMask::pixel_count() const noexcept {
  long long c = 0;
  for (int y = extent_.y0; y < extent_.y1; ++y) {
    const auto* r = bits_.row(y);
    for (int x = extent_.x0; x < extent_.x1; ++x) c += r[x] ? 1 : 0;
  }
  return c;
}

std::optional<Box> InstanceMask::bounding_box() const {
  Box b{width(), height(), 0, 0};
  bool any = false;
  for (int y = extent_.y0; y < extent_.y1; ++y) {
    const auto* r = bits_.row(y);
    int first = extent_.x0;
    while (first < extent_.x1 && !r[first]) ++first;
    if (first == extent_.x1) continue;
    int last = extent_.x1 - 1;
    while (!r[last]) --last;
    any = true;
    b.x0 = std::min(b.x0, first);
    b.y0 = std::min(b.y0, y);
    b.x1 = std::max(b.x1, last + 1);
    b.y1 = std::max(b.y1, y + 1);
  }
  if (!any) return std::nullopt;
  return b;
}

double InstanceMask::iou(const InstanceMask& o) const {
  // Pixels outside an extent are unset, so the intersection lies where the
  // two extents overlap and the union is |A| + |B| - |A and B|.
  const Box both = extent_.intersect(o.extent_);
  long long inter = 0;
  for (int y = both.y0; y < both.y1; ++y) {
    const auto* ra = bits_.row(y);
    const auto* rb = o.bits_.row(y);
    for (int x = both.x0; x < both.x1; ++x) {
      inter += (ra[x] && rb[x]) ? 1 : 0;
    }
  }
  const long long uni = pixel_count() + o.pixel_count() - inter;
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

InstanceMask InstanceMask::dilated(int r) const {
  InstanceMask out = *this;
  std::vector<std::pair<int, int>> grown;
  for (int pass = 0; pass < r; ++pass) {
    // Only pixels within one step of the extent can gain a set neighbor.
    const Box scan = out.extent_.inflated(1, width(), height());
    grown.clear();
    for (int y = scan.y0; y < scan.y1; ++y) {
      for (int x = scan.x0; x < scan.x1; ++x) {
        if (out.get(x, y)) continue;
        if (out.get(x - 1, y) || out.get(x + 1, y) || out.get(x, y - 1) ||
            out.get(x, y + 1)) {
          grown.emplace_back(x, y);
        }
      }
    }
    for (const auto& [x, y] : grown) out.set(x, y);
  }
  return out;
}

InstanceMask InstanceMask::eroded(int r) const {
  InstanceMask out = *this;
  std::vector<std::pair<int, int>> shrunk;
  for (int pass = 0; pass < r; ++pass) {
    const Box scan = out.extent_;
    shrunk.clear();
    for (int y = scan.y0; y < scan.y1; ++y) {
      for (int x = scan.x0; x < scan.x1; ++x) {
        if (!out.get(x, y)) continue;
        // Border pixels erode too (treat outside as unset).
        const bool interior = x > 0 && y > 0 && x < width() - 1 &&
                              y < height() - 1 && out.get(x - 1, y) &&
                              out.get(x + 1, y) && out.get(x, y - 1) &&
                              out.get(x, y + 1);
        if (!interior) shrunk.emplace_back(x, y);
      }
    }
    for (const auto& [x, y] : shrunk) out.set(x, y, false);
  }
  return out;
}

InstanceMask InstanceMask::translated(int dx, int dy) const {
  InstanceMask out(width(), height());
  out.class_id = class_id;
  out.instance_id = instance_id;
  // The extent shifted and clipped to the frame holds every pixel that
  // lands inside it; copy those row segments across.
  const Box dst =
      Box{extent_.x0 + dx, extent_.y0 + dy, extent_.x1 + dx, extent_.y1 + dy}
          .intersect({0, 0, width(), height()});
  if (dst.empty()) return out;
  for (int y = dst.y0; y < dst.y1; ++y) {
    const auto* src = bits_.row(y - dy) + (dst.x0 - dx);
    std::copy(src, src + dst.width(), out.bits_.row(y) + dst.x0);
  }
  out.extent_ = dst;
  return out;
}

namespace {

// Moore neighborhood, clockwise starting from W.
constexpr int kMoore[8][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1},
                              {1, 0},  {1, 1},   {0, 1},  {-1, 1}};

Contour trace_boundary(const InstanceMask& m, int sx, int sy) {
  Contour contour;
  contour.push_back({static_cast<double>(sx), static_cast<double>(sy)});

  int cx = sx, cy = sy;
  // Backtrack starts at W of the start pixel (we scan left-to-right, so the
  // pixel to the left of the first foreground pixel is background).
  int backtrack = 0;
  int fx = -1, fy = -1;  // target of the first move

  const std::size_t max_steps =
      static_cast<std::size_t>(m.width()) * static_cast<std::size_t>(m.height()) * 4 + 16;
  for (std::size_t step = 0; step < max_steps; ++step) {
    // Search clockwise from the pixel after the backtrack direction.
    bool found = false;
    int nx = 0, ny = 0, ndir = 0;
    for (int k = 1; k <= 8; ++k) {
      const int dir = (backtrack + k) % 8;
      const int tx = cx + kMoore[dir][0];
      const int ty = cy + kMoore[dir][1];
      if (m.get(tx, ty)) {
        nx = tx;
        ny = ty;
        ndir = dir;
        found = true;
        break;
      }
    }
    if (!found) break;  // isolated pixel

    // Jacob's stopping criterion: the walk is back at the start pixel and
    // about to repeat its first move, so the loop has closed. Stopping on
    // position alone is wrong — a pinched (8-connected) boundary passes
    // through the start pixel more than once before the loop closes.
    if (step == 0) {
      fx = nx;
      fy = ny;
    } else if (cx == sx && cy == sy && nx == fx && ny == fy) {
      contour.pop_back();  // drop the re-pushed start: the loop is closed
      break;
    }

    contour.push_back({static_cast<double>(nx), static_cast<double>(ny)});
    // New backtrack: points from the new pixel at the last background cell
    // the clockwise search examined before finding it. That cell is at
    // (ndir - 1) relative to the OLD pixel; re-expressed relative to the
    // new pixel it is two steps back for cardinal moves but three for
    // diagonal ones — using the cardinal offset for both lets the search
    // restart on a foreground cell and walk cycles that never re-enter
    // the start state.
    backtrack = (ndir % 2 == 0) ? (ndir + 6) % 8 : (ndir + 5) % 8;
    cx = nx;
    cy = ny;
  }
  return contour;
}

}  // namespace

std::vector<Contour> find_contours(const InstanceMask& mask) {
  std::vector<Contour> contours;
  // Every set pixel lies in the extent, so the scan and the visited map
  // cover only that box. The map is frame scratch (mask transfer runs this
  // per instance per keyframe); the flood-fill stack keeps its capacity
  // across calls the same way.
  const Box e = mask.extent();
  if (e.empty()) return contours;
  rt::ArenaScope scratch;
  auto visited = scratch.alloc_filled<std::uint8_t>(
      static_cast<std::size_t>(e.width()) *
          static_cast<std::size_t>(e.height()),
      0);
  const auto seen = [&](int px, int py) -> std::uint8_t& {
    return visited[static_cast<std::size_t>(py - e.y0) *
                       static_cast<std::size_t>(e.width()) +
                   static_cast<std::size_t>(px - e.x0)];
  };
  thread_local std::vector<std::pair<int, int>> stack;

  for (int y = e.y0; y < e.y1; ++y) {
    const auto* r = mask.raw().row(y);
    for (int x = e.x0; x < e.x1; ++x) {
      if (!r[x] || seen(x, y)) continue;
      const bool is_boundary_start = !mask.get(x - 1, y);
      if (!is_boundary_start) continue;

      Contour c = trace_boundary(mask, x, y);
      // Mark the whole component visited via flood fill so inner starts on
      // the same blob don't retrace.
      stack.assign(1, {x, y});
      while (!stack.empty()) {
        auto [px, py] = stack.back();
        stack.pop_back();
        // mask.get is false outside the extent, so out-of-range pushes die
        // here before the visited lookup.
        if (!mask.get(px, py) || seen(px, py)) continue;
        seen(px, py) = 1;
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

InstanceMask rasterize_polygon(const Contour& polygon, int width, int height) {
  InstanceMask out(width, height);
  const std::size_t n = polygon.size();
  if (n < 3) return out;

  // An edge crosses row y only when y + 0.5 lies in [min y, max y) of the
  // polygon, so only those rows are filled. Bounds and spans are clamped
  // in double before any int cast: contours decoded off the wire or
  // projected through a camera may carry huge or NaN coordinates. A NaN
  // never compares less or greater, so it drops out of the min/max, and a
  // NaN crossing is skipped.
  double ymin = std::numeric_limits<double>::infinity();
  double ymax = -ymin;
  for (const auto& p : polygon) {
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  const double h = static_cast<double>(height);
  const int y_lo = static_cast<int>(std::clamp(std::ceil(ymin - 0.5), 0.0, h));
  const int y_hi = static_cast<int>(std::clamp(std::ceil(ymax - 0.5), 0.0, h));
  const double x_last = static_cast<double>(width - 1);

  // Even-odd scanline fill.
  std::vector<double> xs;
  for (int y = y_lo; y < y_hi; ++y) {
    const double fy = static_cast<double>(y) + 0.5;
    xs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Vec2& a = polygon[i];
      const geom::Vec2& b = polygon[(i + 1) % n];
      if ((a.y <= fy && b.y > fy) || (b.y <= fy && a.y > fy)) {
        const double t = (fy - a.y) / (b.y - a.y);
        const double x = a.x + t * (b.x - a.x);
        if (!std::isnan(x)) xs.push_back(x);
      }
    }
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const double x0 = std::max(0.0, std::ceil(xs[i] - 0.5));
      const double x1 = std::min(x_last, std::floor(xs[i + 1] - 0.5));
      if (x0 <= x1) {
        out.fill_span(y, static_cast<int>(x0), static_cast<int>(x1) + 1);
      }
    }
  }

  return out;
}

std::vector<InstanceMask> split_id_image(
    const img::IdImage& ids, std::span<const std::uint16_t> wanted) {
  const int w = ids.width();
  std::vector<InstanceMask> out;
  out.reserve(wanted.size());
  for (const std::uint16_t id : wanted) {
    out.emplace_back(w, ids.height());
    out.back().instance_id = id;
  }
  // Ids come in runs along a row (background, then an object's span), so
  // each run is found with a compare-only loop and filled as one span.
  for (int y = 0; y < ids.height(); ++y) {
    const std::uint16_t* src = ids.row(y);
    for (int x = 0; x < w;) {
      const std::uint16_t id = src[x];
      int end = x + 1;
      while (end < w && src[end] == id) ++end;
      for (std::size_t k = 0; k < wanted.size(); ++k) {
        if (wanted[k] == id) out[k].fill_span(y, x, end);
      }
      x = end;
    }
  }
  return out;
}

InstanceMask mask_from_id_image(const img::IdImage& ids, std::uint16_t id) {
  return std::move(split_id_image(ids, {&id, 1}).front());
}

}  // namespace edgeis::mask
