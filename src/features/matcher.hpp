// Descriptor matching. Two strategies:
//  - brute-force with Lowe ratio test (initialization, small sets),
//  - windowed matching around predicted pixel positions (tracking), which
//    is both faster and more robust because the VO supplies a strong
//    position prior.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "features/feature.hpp"

namespace edgeis::feat {

struct MatchOptions {
  int max_distance = 64;       // Hamming; 256-bit descriptors
  // Lowe ratio: best < ratio * second-best. The ratio test measures
  // ambiguity between rivals; a query with exactly one candidate has no
  // second-best and is accepted whenever it passes the distance gate —
  // explicitly (see accept() in matcher.cpp), not by comparison against
  // a 2^30 sentinel.
  double ratio = 0.8;
  double search_radius = 24.0; // pixels, for windowed matching
};

struct Match {
  std::size_t index0;  // into the first feature set (or query set)
  std::size_t index1;  // into the second feature set (or train set)
  int distance;
};

/// Brute-force matching with ratio test and mutual-best cross check.
/// Internally packs descriptors contiguously and early-outs candidates
/// against the running second-best (see feature.hpp); output is identical
/// to the scalar reference in tests/reference_kernels.hpp.
std::vector<Match> match_brute_force(std::span<const Feature> set0,
                                     std::span<const Feature> set1,
                                     const MatchOptions& opts = {});

/// Match each query feature against train features within `search_radius`
/// of its predicted pixel position. `predictions[i]` is the expected pixel
/// of query i in the train image; entries without a prediction are skipped.
std::vector<Match> match_windowed(
    std::span<const Feature> queries,
    std::span<const std::optional<geom::Vec2>> predictions,
    std::span<const Feature> train, const MatchOptions& opts = {});

/// Spatial grid over train features to accelerate windowed matching.
class FeatureGrid {
 public:
  FeatureGrid(std::span<const Feature> features, int image_width,
              int image_height, int cell_size = 32);

  /// Indices of features within `radius` of `center`.
  [[nodiscard]] std::vector<std::size_t> query(const geom::Vec2& center,
                                               double radius) const;
  /// Allocation-free variant: clears and refills `out` (hot path — the
  /// windowed matcher reuses one buffer across all queries).
  void query_into(const geom::Vec2& center, double radius,
                  std::vector<std::size_t>& out) const;

 private:
  // CSR storage: indices of cell c are indices_[cell_start_[c] ..
  // cell_start_[c + 1]).
  int cell_size_;
  int cols_, rows_;
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> indices_;
  std::vector<geom::Vec2> positions_;
};

}  // namespace edgeis::feat
