// Instance-mask representation and pixel-level operations: IoU (Eq. 8),
// surrounding boxes (used by dynamic anchor placement), contour extraction
// (the `findContours` analogue used by mask transfer, Section III-C),
// polygon rasterization (contour -> mask) and simple morphology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geometry/vec.hpp"
#include "image/image.hpp"

namespace edgeis::mask {

/// Axis-aligned pixel box, [x0, x1) x [y0, y1).
struct Box {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  [[nodiscard]] int width() const noexcept { return x1 - x0; }
  [[nodiscard]] int height() const noexcept { return y1 - y0; }
  [[nodiscard]] long long area() const noexcept {
    return static_cast<long long>(std::max(0, width())) * std::max(0, height());
  }
  [[nodiscard]] bool empty() const noexcept { return x1 <= x0 || y1 <= y0; }

  [[nodiscard]] Box intersect(const Box& o) const noexcept {
    return {std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
            std::min(y1, o.y1)};
  }
  [[nodiscard]] Box unite(const Box& o) const noexcept {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x0, o.x0), std::min(y0, o.y0), std::max(x1, o.x1),
            std::max(y1, o.y1)};
  }
  /// Box IoU — the metric RoI pruning scores candidates with (Section IV-B).
  [[nodiscard]] double iou(const Box& o) const noexcept {
    const long long inter = intersect(o).area();
    const long long uni = area() + o.area() - inter;
    return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni)
                   : 0.0;
  }
  /// Grow by `margin` pixels on all sides, clipped to [0,w)x[0,h).
  [[nodiscard]] Box inflated(int margin, int w, int h) const noexcept {
    return {std::max(0, x0 - margin), std::max(0, y0 - margin),
            std::min(w, x1 + margin), std::min(h, y1 + margin)};
  }
  [[nodiscard]] bool contains(int x, int y) const noexcept {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
  friend bool operator==(const Box&, const Box&) = default;
};

/// A closed contour: ordered list of connected boundary pixels.
using Contour = std::vector<geom::Vec2>;

/// Dense binary mask of one object instance, with class and instance ids.
///
/// The mask carries its extent: a box that holds every set pixel. Setting
/// a pixel grows it; clearing one leaves it as it is, so the extent is a
/// conservative bound, not always a tight one. A default or freshly sized
/// mask has an empty extent. Every operation below scans only inside
/// extents, so its cost follows the object's size, not the frame's; each
/// still visits the same set pixels in the same row-major order as a
/// full-frame scan, so its output is identical.
class InstanceMask {
 public:
  InstanceMask() = default;
  InstanceMask(int width, int height) : bits_(width, height, 0) {}

  [[nodiscard]] int width() const noexcept { return bits_.width(); }
  [[nodiscard]] int height() const noexcept { return bits_.height(); }
  [[nodiscard]] bool empty() const noexcept { return bits_.empty(); }

  [[nodiscard]] bool get(int x, int y) const {
    return bits_.contains(x, y) && bits_.at(x, y) != 0;
  }
  void set(int x, int y, bool v = true) {
    if (!bits_.contains(x, y)) return;
    bits_.at(x, y) = v ? 1 : 0;
    if (v) grow({x, y, x + 1, y + 1});
  }

  /// Conservative bound of the set pixels (see the class comment).
  [[nodiscard]] const Box& extent() const noexcept { return extent_; }

  [[nodiscard]] long long pixel_count() const noexcept;

  /// Tight bounding box of set pixels; nullopt for an empty mask.
  [[nodiscard]] std::optional<Box> bounding_box() const;

  /// Pixel-level IoU per Eq. (8) of the paper.
  [[nodiscard]] double iou(const InstanceMask& o) const;

  /// 4-connected morphological dilation/erosion by `r` pixels.
  [[nodiscard]] InstanceMask dilated(int r) const;
  [[nodiscard]] InstanceMask eroded(int r) const;

  /// Copy shifted by an integer offset, clipped at the frame borders.
  [[nodiscard]] InstanceMask translated(int dx, int dy) const;

  int class_id = 0;        // semantic class (0 = background / unknown)
  int instance_id = 0;     // unique per object instance in the scene

  [[nodiscard]] const img::Image<std::uint8_t>& raw() const noexcept {
    return bits_;
  }

 private:
  friend InstanceMask rasterize_polygon(const Contour&, int, int);
  friend std::vector<InstanceMask> split_id_image(
      const img::IdImage&, std::span<const std::uint16_t>);

  void grow(const Box& b) noexcept { extent_ = extent_.unite(b); }
  /// Set pixels [x0, x1) of row `y`; the span must lie inside the frame.
  void fill_span(int y, int x0, int x1);

  img::Image<std::uint8_t> bits_;
  Box extent_;
};

/// Extract the outer contours of all connected components in the mask
/// (Moore-neighbor tracing with Jacob's stopping criterion — the analogue
/// of OpenCV findContours with RETR_EXTERNAL).
std::vector<Contour> find_contours(const InstanceMask& mask);

/// Rasterize a closed polygon into a mask (even-odd scanline fill).
InstanceMask rasterize_polygon(const Contour& polygon, int width, int height);

/// Split an instance-id buffer into one mask per entry of `wanted`, in that
/// order, in a single pass over the buffer (the one mask op that reads the
/// whole frame). Each mask's instance_id is its id.
std::vector<InstanceMask> split_id_image(const img::IdImage& ids,
                                         std::span<const std::uint16_t> wanted);

/// Build an InstanceMask from an instance-id buffer, selecting `id` pixels.
InstanceMask mask_from_id_image(const img::IdImage& ids, std::uint16_t id);

}  // namespace edgeis::mask
