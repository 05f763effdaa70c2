// Tests for the VO stack: map bookkeeping, the clearing algorithm, labeled
// initialization and frame-to-frame tracking on rendered scenes.
#include <gtest/gtest.h>

#include "features/orb.hpp"
#include "scene/presets.hpp"
#include "vo/initializer.hpp"
#include "vo/map.hpp"
#include "vo/tracker.hpp"

using namespace edgeis;
using namespace edgeis::vo;

TEST(Map, AddFindRemove) {
  Map map;
  MapPoint p;
  p.position = {1, 2, 3};
  const int id = map.add_point(p);
  ASSERT_NE(map.find(id), nullptr);
  EXPECT_EQ(map.find(id)->position.z, 3.0);
  map.remove_point(id);
  EXPECT_EQ(map.find(id), nullptr);
  map.remove_point(id);  // double remove is a no-op
}

TEST(Map, RemoveObjectPointUpdatesCount) {
  Map map;
  MapPoint p;
  p.object_instance = 7;
  ObjectTrack& track = map.object(7);
  track.point_count = 1;
  const int id = map.add_point(p);
  map.remove_point(id);
  EXPECT_EQ(map.object(7).point_count, 0);
}

TEST(Map, UtilityPrefersContourAndRecency) {
  MapPoint fresh;
  fresh.observations = 5;
  fresh.last_seen_frame = 100;
  MapPoint stale = fresh;
  stale.last_seen_frame = 10;
  EXPECT_GT(fresh.utility(100), stale.utility(100));
  MapPoint contour = stale;
  contour.near_contour = true;
  EXPECT_GT(contour.utility(100), stale.utility(100));
}

TEST(Map, MemoryBudgetEvictsLowUtility) {
  Map map;
  for (int i = 0; i < 1000; ++i) {
    MapPoint p;
    p.observations = i % 10;
    p.last_seen_frame = i;
    map.add_point(p);
  }
  const std::size_t before = map.point_count();
  const std::size_t budget = map.memory_bytes() / 2;
  const std::size_t removed = map.enforce_memory_budget(budget, 1000);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(map.point_count(), before);
  EXPECT_LE(map.memory_bytes(), budget);
}

TEST(Map, KeyframeLookup) {
  Map map;
  Keyframe kf;
  kf.frame_index = 42;
  map.add_keyframe(kf);
  ASSERT_NE(map.keyframe_by_index(42), nullptr);
  EXPECT_EQ(map.keyframe_by_index(41), nullptr);
}

namespace {

struct VoFixture {
  scene::SceneConfig cfg;
  scene::SceneSimulator sim;
  feat::OrbExtractor orb;
  rt::Rng rng{99};
  Map map;
  std::optional<InitializationResult> init_result;

  VoFixture() : cfg(scene::make_davis_scene(42, 120)), sim(cfg) {
    auto f0 = sim.render(0);
    auto f1 = sim.render(20);
    InitializationInput input;
    input.frame_index0 = 0;
    input.frame_index1 = 20;
    input.image0 = &f0.intensity;
    input.image1 = &f1.intensity;
    input.features0 = orb.extract(f0.intensity);
    input.features1 = orb.extract(f1.intensity);
    input.masks0 = sim.ground_truth_masks(f0);
    input.masks1 = sim.ground_truth_masks(f1);
    init_result = initialize_map(cfg.camera, input, map, rng);
  }
};

}  // namespace

TEST(Initializer, BuildsLabeledMap) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  EXPECT_GT(fx.init_result->triangulated_points, 80);
  EXPECT_GT(fx.init_result->labeled_points, 10);
  EXPECT_EQ(fx.map.keyframes().size(), 2u);
  // At least one object track created.
  EXPECT_FALSE(fx.map.objects().empty());
}

TEST(Initializer, RecoveredPoseMatchesGroundTruthRotation) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  // Compare the relative rotation against ground truth (translation scale
  // is arbitrary in monocular initialization).
  const auto f0 = fx.sim.render(0);
  const auto f1 = fx.sim.render(20);
  const geom::SE3 gt_rel = f1.true_t_cw * f0.true_t_cw.inverse();
  const geom::SE3 est_rel =
      fx.init_result->t_cw1 * fx.init_result->t_cw0.inverse();
  const double rot_err_deg =
      geom::so3_log(gt_rel.R.transpose() * est_rel.R).norm() * 180.0 / M_PI;
  EXPECT_LT(rot_err_deg, 1.5);
}

TEST(Initializer, RejectsNoParallaxPair) {
  scene::SceneConfig cfg = scene::make_davis_scene(42, 10);
  scene::SceneSimulator sim(cfg);
  feat::OrbExtractor orb;
  rt::Rng rng(7);
  Map map;
  auto f0 = sim.render(0);
  auto f1 = sim.render(1);  // ~17mm baseline: not enough
  InitializationInput input;
  input.frame_index0 = 0;
  input.frame_index1 = 1;
  input.image0 = &f0.intensity;
  input.image1 = &f1.intensity;
  input.features0 = orb.extract(f0.intensity);
  input.features1 = orb.extract(f1.intensity);
  InitializationDebug debug;
  EXPECT_FALSE(
      initialize_map(cfg.camera, input, map, rng, {}, &debug).has_value());
  EXPECT_STRNE(debug.fail_reason, "");
  EXPECT_EQ(map.keyframes().size(), 0u);  // map untouched on failure
}

TEST(Tracker, TracksSubsequentFrames) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  Tracker tracker(fx.cfg.camera, &fx.map, fx.rng.fork());
  tracker.set_initial_poses(fx.init_result->t_cw1, fx.init_result->t_cw1);
  int ok = 0;
  for (int i = 21; i < 60; ++i) {
    auto frame = fx.sim.render(i);
    auto obs = tracker.track(i, fx.orb.extract(frame.intensity));
    ok += obs.tracking_ok ? 1 : 0;
  }
  EXPECT_GE(ok, 35);
  // Map should have grown through keyframe triangulation.
  EXPECT_GT(fx.map.point_count(), 150u);
}

TEST(Tracker, PoseConsistentWithGroundTruthMotion) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  Tracker tracker(fx.cfg.camera, &fx.map, fx.rng.fork());
  tracker.set_initial_poses(fx.init_result->t_cw1, fx.init_result->t_cw1);
  geom::SE3 est40, est50;
  for (int i = 21; i <= 50; ++i) {
    auto frame = fx.sim.render(i);
    auto obs = tracker.track(i, fx.orb.extract(frame.intensity));
    if (i == 40) est40 = obs.t_cw;
    if (i == 50) est50 = obs.t_cw;
  }
  // Relative rotation between frames 40 and 50 should match ground truth
  // (absolute frames differ by the arbitrary monocular gauge).
  const geom::SE3 gt_rel = fx.sim.render(50).true_t_cw *
                           fx.sim.render(40).true_t_cw.inverse();
  const geom::SE3 est_rel = est50 * est40.inverse();
  const double rot_err_deg =
      geom::so3_log(gt_rel.R.transpose() * est_rel.R).norm() * 180.0 / M_PI;
  EXPECT_LT(rot_err_deg, 2.0);
}

TEST(Tracker, AnnotateKeyframeLabelsPoints) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  Tracker tracker(fx.cfg.camera, &fx.map, fx.rng.fork());
  tracker.set_initial_poses(fx.init_result->t_cw1, fx.init_result->t_cw1);
  int annotated_keyframe = -1;
  for (int i = 21; i < 60 && annotated_keyframe < 0; ++i) {
    auto frame = fx.sim.render(i);
    auto obs = tracker.track(i, fx.orb.extract(frame.intensity));
    if (obs.created_keyframe) {
      tracker.annotate_keyframe(i, fx.sim.ground_truth_masks(frame));
      annotated_keyframe = i;
    }
  }
  ASSERT_GT(annotated_keyframe, 0);
  const Keyframe* kf = fx.map.keyframe_by_index(annotated_keyframe);
  ASSERT_NE(kf, nullptr);
  EXPECT_TRUE(kf->has_masks);
  // Unknown frame index: annotation is a safe no-op.
  tracker.annotate_keyframe(9999, {});
}

TEST(Tracker, UnlabeledFractionDropsAfterAnnotation) {
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  Tracker tracker(fx.cfg.camera, &fx.map, fx.rng.fork());
  tracker.set_initial_poses(fx.init_result->t_cw1, fx.init_result->t_cw1);
  double last_unlabeled = 1.0;
  for (int i = 21; i < 80; ++i) {
    auto frame = fx.sim.render(i);
    auto obs = tracker.track(i, fx.orb.extract(frame.intensity));
    if (obs.created_keyframe) {
      tracker.annotate_keyframe(i, fx.sim.ground_truth_masks(frame));
    }
    last_unlabeled = obs.unlabeled_fraction;
  }
  // With every keyframe annotated, most matched points are labeled.
  EXPECT_LT(last_unlabeled, 0.5);
}

TEST(Tracker, KeyframeCadenceHoldsWhileTracking) {
  // With fresh extraction on every frame, a keyframe forms as soon as one
  // is due and tracking holds: two consecutive keyframes separated by
  // tracked frames only are at most keyframe_interval apart.
  VoFixture fx;
  ASSERT_TRUE(fx.init_result.has_value());
  const TrackerOptions opts;
  Tracker tracker(fx.cfg.camera, &fx.map, fx.rng.fork(), opts);
  tracker.set_initial_poses(fx.init_result->t_cw1, fx.init_result->t_cw1);
  int last_keyframe = fx.map.keyframes().back().frame_index;
  bool tracked_since_keyframe = true;
  int keyframes = 0;
  for (int i = 21; i <= 80; ++i) {
    auto frame = fx.sim.render(i);
    auto obs = tracker.track(i, fx.orb.extract(frame.intensity));
    if (!obs.tracking_ok) {
      EXPECT_FALSE(obs.created_keyframe) << "frame " << i;
      tracked_since_keyframe = false;
      continue;
    }
    if (obs.created_keyframe) {
      if (tracked_since_keyframe) {
        EXPECT_LE(i - last_keyframe, opts.keyframe_interval) << "frame " << i;
      }
      ++keyframes;
      last_keyframe = i;
      tracked_since_keyframe = true;
    } else if (tracked_since_keyframe) {
      EXPECT_LT(i - last_keyframe, opts.keyframe_interval) << "frame " << i;
    }
  }
  EXPECT_GE(keyframes, 2);
}
