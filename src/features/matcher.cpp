#include "features/matcher.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/arena.hpp"

namespace edgeis::feat {
namespace {

constexpr int kNoDistance = 1 << 30;

/// Best + second-best Hamming distance of one query over candidates.
struct Best2 {
  int best = -1;         // candidate index (caller-defined space)
  int bd = kNoDistance;  // best distance
  int sd = kNoDistance;  // second-best distance (kNoDistance = none seen)
};

/// Copy descriptors into a contiguous 4-word-per-feature array. Feature is
/// ~64 bytes with the keypoint interleaved; packing turns the matcher's
/// inner loop into dense sequential loads instead of strided ones.
std::span<std::uint64_t> pack_descriptors(std::span<const Feature> fs,
                                          rt::ArenaScope& scratch) {
  auto words = scratch.alloc<std::uint64_t>(fs.size() * 4);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const auto& b = fs[i].desc.bits;
    words[i * 4 + 0] = b[0];
    words[i * 4 + 1] = b[1];
    words[i * 4 + 2] = b[2];
    words[i * 4 + 3] = b[3];
  }
  return words;
}

/// Scan every packed candidate; distances that cannot beat the running
/// second-best early-out after two words (hamming_distance_bounded).
Best2 scan_all(const Descriptor& query, const std::uint64_t* words,
               std::size_t n) {
  const std::uint64_t q0 = query.bits[0], q1 = query.bits[1],
                      q2 = query.bits[2], q3 = query.bits[3];
  Best2 r;
  for (std::size_t j = 0; j < n; ++j) {
    const int d =
        hamming_distance_bounded(q0, q1, q2, q3, words + j * 4, r.sd);
    if (d < r.bd) {
      r.sd = r.bd;
      r.bd = d;
      r.best = static_cast<int>(j);
    } else if (d < r.sd) {
      r.sd = d;
    }
  }
  return r;
}

/// Same scan over an index subset (windowed matching: grid candidates).
Best2 scan_subset(const Descriptor& query, const std::uint64_t* words,
                  std::span<const std::size_t> subset) {
  const std::uint64_t q0 = query.bits[0], q1 = query.bits[1],
                      q2 = query.bits[2], q3 = query.bits[3];
  Best2 r;
  for (const std::size_t j : subset) {
    const int d =
        hamming_distance_bounded(q0, q1, q2, q3, words + j * 4, r.sd);
    if (d < r.bd) {
      r.sd = r.bd;
      r.bd = d;
      r.best = static_cast<int>(j);
    } else if (d < r.sd) {
      r.sd = d;
    }
  }
  return r;
}

/// Distance gate + Lowe ratio test. A query with exactly one candidate
/// has no second-best; the old code left `sd` at 2^30 there, so the
/// ratio test passed only as an accident of sentinel arithmetic. The
/// missing second-best is now an explicit case: the ratio test measures
/// ambiguity between rivals, and a lone candidate inside the distance
/// gate has no rival to be confused with, so it is accepted
/// deliberately. (Rejecting lone candidates instead — e.g. demanding
/// they beat a hypothetical rival at max_distance + 1 — was measured to
/// cost ~0.03 mean IoU on the clean davis run: the windowed matcher's
/// pose-predicted search window produces many sparse-region queries
/// whose single candidate is the genuine correspondence.) Tied rivals
/// (bd == sd) keep failing the strict inequality.
bool accept(const Best2& r, const MatchOptions& opts) {
  if (r.best < 0 || r.bd > opts.max_distance) return false;
  if (r.sd == kNoDistance) return true;  // lone candidate: unambiguous
  return static_cast<double>(r.bd) < opts.ratio * static_cast<double>(r.sd);
}

}  // namespace

std::vector<Match> match_brute_force(std::span<const Feature> set0,
                                     std::span<const Feature> set1,
                                     const MatchOptions& opts) {
  if (set0.empty() || set1.empty()) return {};

  rt::ArenaScope scratch;
  const auto words = pack_descriptors(set1, scratch);

  // Forward pass: best + second-best per query.
  auto best1 = scratch.alloc<int>(set0.size());
  auto best_dist = scratch.alloc<int>(set0.size());
  auto accepted = scratch.alloc<std::uint8_t>(set0.size());
  for (std::size_t i = 0; i < set0.size(); ++i) {
    const Best2 r = scan_all(set0[i].desc, words.data(), set1.size());
    best1[i] = r.best;
    best_dist[i] = r.bd;
    accepted[i] = accept(r, opts) ? 1 : 0;
  }

  // Cross check: j's best query must be i.
  auto best0 = scratch.alloc_filled<int>(set1.size(), -1);
  auto best0_dist = scratch.alloc_filled<int>(set1.size(), kNoDistance);
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

FeatureGrid::FeatureGrid(std::span<const Feature> features, int image_width,
                         int image_height, int cell_size)
    : cell_size_(cell_size),
      cols_(std::max(1, (image_width + cell_size - 1) / cell_size)),
      rows_(std::max(1, (image_height + cell_size - 1) / cell_size)) {
  // CSR layout (counts -> prefix offsets -> fill) instead of a
  // vector-of-vectors: three flat allocations per build and sequential
  // candidate scans, no per-cell growth churn.
  const std::size_t cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  cell_start_.assign(cells + 1, 0);
  positions_.reserve(features.size());
  auto cell_of = [&](const geom::Vec2& p) {
    const int cx = std::clamp(static_cast<int>(p.x) / cell_size_, 0, cols_ - 1);
    const int cy = std::clamp(static_cast<int>(p.y) / cell_size_, 0, rows_ - 1);
    return static_cast<std::size_t>(cy * cols_ + cx);
  };
  for (const auto& f : features) {
    positions_.push_back(f.kp.pixel);
    ++cell_start_[cell_of(f.kp.pixel) + 1];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  indices_.resize(features.size());
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < features.size(); ++i) {
    indices_[cursor[cell_of(features[i].kp.pixel)]++] = i;
  }
}

void FeatureGrid::query_into(const geom::Vec2& center, double radius,
                             std::vector<std::size_t>& out) const {
  out.clear();
  const int cx0 = std::clamp(
      static_cast<int>((center.x - radius)) / cell_size_, 0, cols_ - 1);
  const int cx1 = std::clamp(
      static_cast<int>((center.x + radius)) / cell_size_, 0, cols_ - 1);
  const int cy0 = std::clamp(
      static_cast<int>((center.y - radius)) / cell_size_, 0, rows_ - 1);
  const int cy1 = std::clamp(
      static_cast<int>((center.y + radius)) / cell_size_, 0, rows_ - 1);
  const double r2 = radius * radius;
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const std::size_t c = static_cast<std::size_t>(cy * cols_ + cx);
      for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        const std::size_t i = indices_[k];
        if ((positions_[i] - center).squared_norm() <= r2) {
          out.push_back(i);
        }
      }
    }
  }
}

std::vector<std::size_t> FeatureGrid::query(const geom::Vec2& center,
                                            double radius) const {
  std::vector<std::size_t> out;
  query_into(center, radius, out);
  return out;
}

std::vector<Match> match_windowed(
    std::span<const Feature> queries,
    std::span<const std::optional<geom::Vec2>> predictions,
    std::span<const Feature> train, const MatchOptions& opts) {
  if (train.empty()) return {};
  int maxx = 0, maxy = 0;
  for (const auto& f : train) {
    maxx = std::max(maxx, static_cast<int>(f.kp.pixel.x) + 1);
    maxy = std::max(maxy, static_cast<int>(f.kp.pixel.y) + 1);
  }
  const FeatureGrid grid(train, maxx, maxy);

  rt::ArenaScope scratch;
  const auto words = pack_descriptors(train, scratch);

  std::vector<Match> out;
  auto train_claimed =
      scratch.alloc_filled<int>(train.size(), -1);  // best query distance
  auto train_claim_slot = scratch.alloc<std::size_t>(train.size());

  std::vector<std::size_t> cand;  // reused across queries
  cand.reserve(64);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i >= predictions.size() || !predictions[i]) continue;
    grid.query_into(*predictions[i], opts.search_radius, cand);
    const Best2 r = scan_subset(queries[i].desc, words.data(), cand);
    if (!accept(r, opts)) continue;
    // Resolve train-side conflicts in favor of the smaller distance.
    const auto j = static_cast<std::size_t>(r.best);
    if (train_claimed[j] >= 0) {
      if (r.bd >= train_claimed[j]) continue;
      // Replace the previous claim.
      out[train_claim_slot[j]] = {i, j, r.bd};
      train_claimed[j] = r.bd;
      continue;
    }
    train_claimed[j] = r.bd;
    train_claim_slot[j] = out.size();
    out.push_back({i, j, r.bd});
  }
  return out;
}

}  // namespace edgeis::feat
