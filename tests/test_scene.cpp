// Unit tests for the synthetic scene: meshes, motion scripts, camera paths,
// rendering consistency (intensity / instance ids / depth) and presets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "scene/mesh.hpp"
#include "scene/presets.hpp"
#include "scene/scene.hpp"

using namespace edgeis;
using namespace edgeis::scene;

TEST(Mesh, BoxHasTwelveTriangles) {
  const Mesh m = make_box(1, 1, 1);
  EXPECT_EQ(m.triangles.size(), 12u);
  EXPECT_EQ(m.vertices.size(), 24u);
}

TEST(Mesh, CylinderClosed) {
  const Mesh m = make_cylinder(0.5, 2.0, 8);
  // 8 side quads (2 tris) + 16 cap triangles.
  EXPECT_EQ(m.triangles.size(), 32u);
}

TEST(Mesh, AppendOffsetsIndices) {
  Mesh a = make_box(1, 1, 1);
  const auto base_vertices = a.vertices.size();
  a.append(make_box(2, 2, 2));
  EXPECT_EQ(a.triangles.size(), 24u);
  // Second box's triangles must reference the appended vertex range.
  for (std::size_t i = 12; i < 24; ++i) {
    EXPECT_GE(a.triangles[i].a, base_vertices);
  }
}

TEST(MotionScript, StaticBeforeStartTime) {
  MotionScript m;
  m.base_position = {1, 0, 2};
  m.velocity = {1, 0, 0};
  m.start_move_time = 5.0;
  const auto p0 = m.pose_at(3.0);
  EXPECT_NEAR(p0.t.x, 1.0, 1e-12);
  const auto p1 = m.pose_at(7.0);
  EXPECT_NEAR(p1.t.x, 3.0, 1e-12);
  EXPECT_TRUE(m.is_dynamic());
}

TEST(MotionScript, StaticObjectNotDynamic) {
  MotionScript m;
  m.base_position = {1, 0, 2};
  EXPECT_FALSE(m.is_dynamic());
  const auto p = m.pose_at(100.0);
  EXPECT_NEAR((p.t - m.base_position).norm(), 0.0, 1e-12);
}

TEST(CameraPath, OrbitLooksAtCenter) {
  CameraPath path;
  path.kind = CameraPathKind::kOrbit;
  path.orbit_radius = 5.0;
  path.height = 1.5;
  for (double t : {0.0, 1.0, 3.0}) {
    const geom::SE3 t_cw = path.pose_at(t);
    // The scene center should project near the optical axis: transform the
    // look-at target into the camera frame and check it is in front and
    // roughly centered.
    const geom::Vec3 target{0.0, 1.5 * 0.6, 0.0};
    const geom::Vec3 cam = t_cw * target;
    EXPECT_GT(cam.z, 0.0);
    EXPECT_LT(std::abs(cam.x / cam.z), 0.05);
  }
}

TEST(CameraPath, WalkAdvances) {
  CameraPath path;
  path.kind = CameraPathKind::kWalk;
  path.speed = 1.0;
  const geom::SE3 a = path.pose_at(0.0);
  const geom::SE3 b = path.pose_at(2.0);
  EXPECT_GT(a.center_distance_to(b), 1.5);
}

namespace {

SceneConfig small_scene(std::uint64_t seed = 5) {
  SceneConfig cfg = make_davis_scene(seed, 30);
  cfg.camera.width = 320;
  cfg.camera.height = 240;
  cfg.camera.cx = 160;
  cfg.camera.cy = 120;
  cfg.camera.fx = cfg.camera.fy = 260;
  return cfg;
}

}  // namespace

TEST(Renderer, DeterministicFrames) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim1(cfg), sim2(cfg);
  const auto a = sim1.render(7);
  const auto b = sim2.render(7);
  ASSERT_EQ(a.intensity.size(), b.intensity.size());
  for (int y = 0; y < a.intensity.height(); ++y) {
    for (int x = 0; x < a.intensity.width(); ++x) {
      ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y));
      ASSERT_EQ(a.instance_ids.at(x, y), b.instance_ids.at(x, y));
    }
  }
}

TEST(Renderer, InstanceIdsMatchDepthOrdering) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(0);
  // Wherever an instance id is set, depth must be finite (something was
  // drawn), and the pixel must have a plausible intensity.
  long long obj_pixels = 0;
  for (int y = 0; y < frame.instance_ids.height(); ++y) {
    for (int x = 0; x < frame.instance_ids.width(); ++x) {
      if (frame.instance_ids.at(x, y) > 0) {
        ++obj_pixels;
        EXPECT_LT(frame.depth.at(x, y), 100.0f);
      }
    }
  }
  EXPECT_GT(obj_pixels, 500);
}

TEST(Renderer, GroundTruthMasksDisjoint) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(3);
  const auto masks = sim.ground_truth_masks(frame);
  ASSERT_GE(masks.size(), 2u);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    for (std::size_t j = i + 1; j < masks.size(); ++j) {
      // Pixel-exact instance buffers: masks cannot overlap.
      long long overlap = 0;
      for (int y = 0; y < masks[i].height(); ++y) {
        for (int x = 0; x < masks[i].width(); ++x) {
          if (masks[i].get(x, y) && masks[j].get(x, y)) ++overlap;
        }
      }
      EXPECT_EQ(overlap, 0);
    }
  }
}

TEST(Renderer, CameraPoseMatchesConfigPath) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(12);
  const geom::SE3 expected = cfg.path.pose_at(12 / cfg.fps);
  EXPECT_NEAR(frame.true_t_cw.t.x, expected.t.x, 1e-12);
  EXPECT_NEAR(frame.true_t_cw.rotation_angle_to(expected), 0.0, 1e-12);
}

TEST(Presets, AllDatasetsConstruct) {
  for (const char* name : {"davis", "kitti", "xiph", "field"}) {
    const SceneConfig cfg = make_dataset_scene(name, 7, 60);
    EXPECT_EQ(cfg.name, name);
    EXPECT_FALSE(cfg.objects.empty());
    EXPECT_EQ(cfg.total_frames, 60);
    // Instance ids unique and positive.
    for (std::size_t i = 0; i < cfg.objects.size(); ++i) {
      EXPECT_GT(cfg.objects[i].instance_id, 0);
      for (std::size_t j = i + 1; j < cfg.objects.size(); ++j) {
        EXPECT_NE(cfg.objects[i].instance_id, cfg.objects[j].instance_id);
      }
    }
  }
  EXPECT_THROW(make_dataset_scene("nope", 1, 10), std::invalid_argument);
}

TEST(Presets, ComplexityLevelsScaleObjectCount) {
  const auto easy = make_complexity_scene(Complexity::kEasy, 3, 30);
  const auto medium = make_complexity_scene(Complexity::kMedium, 3, 30);
  const auto hard = make_complexity_scene(Complexity::kHard, 3, 30);
  EXPECT_LE(easy.objects.size(), 3u);
  EXPECT_GT(medium.objects.size(), easy.objects.size());
  bool any_moving = false;
  for (const auto& o : hard.objects) any_moving |= o.motion.is_dynamic();
  EXPECT_TRUE(any_moving);
  for (const auto& o : easy.objects) EXPECT_FALSE(o.motion.is_dynamic());
}

TEST(Presets, GaitSpeedsOrdered) {
  const auto walk = make_motion_scene(Gait::kWalk, 3, 30);
  const auto stride = make_motion_scene(Gait::kStride, 3, 30);
  const auto jog = make_motion_scene(Gait::kJog, 3, 30);
  EXPECT_LT(walk.path.speed, stride.path.speed);
  EXPECT_LT(stride.path.speed, jog.path.speed);
  EXPECT_LT(walk.path.bob_amplitude, jog.path.bob_amplitude);
}

TEST(ClassNames, AllDistinct) {
  EXPECT_STREQ(class_name(ObjectClass::kPerson), "person");
  EXPECT_STREQ(class_name(ObjectClass::kSeparator), "separator");
  EXPECT_STREQ(class_name(ObjectClass::kBackground), "background");
}

// ---------------------------------------------------------------------------
// Open-world stress suite (scene dynamics + presets).

namespace {

/// Stress preset shrunk to test resolution so per-frame renders stay cheap.
SceneConfig small_stress(StressRegime regime, std::uint64_t seed = 11,
                         int frames = 60) {
  SceneConfig cfg = make_stress_scene(regime, seed, frames);
  cfg.camera.width = 320;
  cfg.camera.height = 240;
  cfg.camera.cx = 160;
  cfg.camera.cy = 120;
  cfg.camera.fx = cfg.camera.fy = 260;
  return cfg;
}

long long id_pixels(const RenderedFrame& frame, int instance_id) {
  long long n = 0;
  for (int y = 0; y < frame.instance_ids.height(); ++y) {
    for (int x = 0; x < frame.instance_ids.width(); ++x) {
      if (frame.instance_ids.at(x, y) == instance_id) ++n;
    }
  }
  return n;
}

double mean_intensity(const RenderedFrame& frame) {
  double s = 0.0;
  for (int y = 0; y < frame.intensity.height(); ++y) {
    for (int x = 0; x < frame.intensity.width(); ++x) {
      s += frame.intensity.at(x, y);
    }
  }
  return s / (frame.intensity.width() * frame.intensity.height());
}

}  // namespace

TEST(StressPresets, NamesRoundTripAndUnknownThrows) {
  for (const StressRegime regime : kAllStressRegimes) {
    const char* name = stress_regime_name(regime);
    const SceneConfig cfg = make_stress_scene(name, 11, 60);
    EXPECT_EQ(cfg.name, name);
    EXPECT_FALSE(cfg.objects.empty());
    for (std::size_t i = 0; i < cfg.objects.size(); ++i) {
      EXPECT_GT(cfg.objects[i].instance_id, 0);
      for (std::size_t j = i + 1; j < cfg.objects.size(); ++j) {
        EXPECT_NE(cfg.objects[i].instance_id, cfg.objects[j].instance_id);
      }
    }
  }
  EXPECT_THROW(make_stress_scene("stress-nope", 1, 10),
               std::invalid_argument);
}

TEST(StressPresets, SameSeedRendersBitwiseIdentical) {
  for (const StressRegime regime : kAllStressRegimes) {
    const SceneConfig cfg = small_stress(regime);
    SceneSimulator sim1(cfg), sim2(cfg);
    for (int i : {0, 25, 50}) {  // spans entry/exit and shake windows
      const auto a = sim1.render(i);
      const auto b = sim2.render(i);
      ASSERT_EQ(a.intensity.size(), b.intensity.size());
      for (int y = 0; y < a.intensity.height(); ++y) {
        for (int x = 0; x < a.intensity.width(); ++x) {
          ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y))
              << stress_regime_name(regime) << " frame " << i;
          ASSERT_EQ(a.instance_ids.at(x, y), b.instance_ids.at(x, y));
        }
      }
    }
  }
}

TEST(StressPresets, EntryExitMatchesPresenceWindows) {
  const SceneConfig cfg = small_stress(StressRegime::kEntryExit);
  SceneSimulator sim(cfg);
  // The preset scripts at least one mid-sequence spawn and one despawn.
  int spawners = 0, despawners = 0;
  const double clip_s = cfg.total_frames / cfg.fps;
  for (const auto& obj : cfg.objects) {
    spawners += obj.spawn_time > 0.0 ? 1 : 0;
    despawners += obj.despawn_time < clip_s ? 1 : 0;
  }
  EXPECT_GE(spawners, 1);
  EXPECT_GE(despawners, 1);

  // Per frame: an absent object owns zero pixels and contributes no
  // ground-truth mask; each scripted object is actually seen while
  // present (entry/exit must be observable, not just scripted).
  std::vector<long long> seen(cfg.objects.size(), 0);
  for (int i = 0; i < cfg.total_frames; i += 5) {
    const auto frame = sim.render(i);
    const auto gts = sim.ground_truth_masks(frame);
    for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
      const auto& obj = cfg.objects[k];
      const long long px = id_pixels(frame, obj.instance_id);
      if (!obj.present_at(frame.timestamp)) {
        EXPECT_EQ(px, 0) << "object " << obj.instance_id << " rendered "
                         << "outside its presence window at frame " << i;
        for (const auto& m : gts) EXPECT_NE(m.instance_id, obj.instance_id);
      }
      seen[k] += px;
    }
    // Pose vectors stay index-aligned with config().objects regardless of
    // presence (the pipeline indexes them by object position).
    ASSERT_EQ(frame.true_t_wo.size(), cfg.objects.size());
  }
  for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
    EXPECT_GT(seen[k], 0) << "object " << cfg.objects[k].instance_id
                          << " never visible";
  }
}

TEST(StressPresets, OcclusionMasksConsistentWithGroundTruth) {
  const SceneConfig cfg = small_stress(StressRegime::kOcclusion);
  SceneSimulator sim(cfg);
  bool saw_occlusion = false;
  for (int i = 0; i < cfg.total_frames; i += 10) {
    const auto frame = sim.render(i);
    for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
      const auto& obj = cfg.objects[k];
      const auto visible =
          SceneSimulator::ground_truth_mask(frame, obj.instance_id, obj.cls);
      const auto full = sim.unoccluded_mask(i, static_cast<int>(k));
      // Visibility is exactly "full projection minus whatever something
      // nearer won in the z-buffer": visible must be a subset of full.
      for (int y = 0; y < visible.height(); ++y) {
        for (int x = 0; x < visible.width(); ++x) {
          if (visible.get(x, y)) {
            ASSERT_TRUE(full.get(x, y))
                << "visible pixel outside unoccluded projection, object "
                << obj.instance_id << " frame " << i;
          }
        }
      }
      if (full.pixel_count() > 200 &&
          visible.pixel_count() < full.pixel_count() / 2) {
        saw_occlusion = true;  // mostly hidden at some point in the sweep
      }
    }
  }
  EXPECT_TRUE(saw_occlusion)
      << "occluder sweep never hid a majority of any object";
}

TEST(StressPresets, LightingShiftDarkensRenderedFrames) {
  SceneConfig lit = small_stress(StressRegime::kLighting);
  ASSERT_FALSE(lit.lighting.empty());
  SceneConfig flat = lit;
  flat.lighting.shifts.clear();
  // Frame in the interior of the first (darkening) shift window.
  const auto& shift = lit.lighting.shifts.front();
  ASSERT_LT(shift.gain, 1.0);
  const int mid =
      static_cast<int>((shift.start_time + shift.end_time) / 2.0 * lit.fps);
  const auto dark = SceneSimulator(lit).render(mid);
  const auto bright = SceneSimulator(flat).render(mid);
  EXPECT_LT(mean_intensity(dark), mean_intensity(bright) * 0.75);
  // Outside every window the script is a no-op: identical pixels.
  const auto a = SceneSimulator(lit).render(0);
  const auto b = SceneSimulator(flat).render(0);
  for (int y = 0; y < a.intensity.height(); ++y) {
    for (int x = 0; x < a.intensity.width(); ++x) {
      ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y));
    }
  }
}

TEST(LightingScript, RampsAndComposes) {
  LightingScript script;
  script.shifts.push_back({/*start=*/2.0, /*end=*/6.0, /*ramp=*/1.0,
                           /*gain=*/0.5, /*bias=*/-10.0});
  EXPECT_EQ(script.at(0.0), (std::pair<double, double>{1.0, 0.0}));
  EXPECT_EQ(script.at(4.0), (std::pair<double, double>{0.5, -10.0}));
  const auto [gain_mid, bias_mid] = script.at(2.5);  // half-way up the ramp
  EXPECT_NEAR(gain_mid, 0.75, 1e-12);
  EXPECT_NEAR(bias_mid, -5.0, 1e-12);
}

TEST(ShakeScript, PerturbsOnlyInsideWindow) {
  const SceneConfig cfg = small_stress(StressRegime::kShake);
  const ShakeScript& shake = cfg.path.shake;
  ASSERT_TRUE(shake.active());
  CameraPath still = cfg.path;
  still.shake = ShakeScript{};  // inactive (end <= start)
  const double before = shake.start_time * 0.5;
  const double inside = (shake.start_time + shake.end_time) / 2.0;
  // Outside the window the shaken path equals the base path exactly.
  EXPECT_NEAR(cfg.path.pose_at(before).rotation_angle_to(
                  still.pose_at(before)),
              0.0, 1e-12);
  EXPECT_NEAR(
      (cfg.path.pose_at(before).t - still.pose_at(before).t).norm(), 0.0,
      1e-12);
  // Inside it the pose is rotated and translated, bounded by the scripted
  // amplitudes (two-sinusoid channels can exceed one amplitude, never 2x).
  const double angle =
      cfg.path.pose_at(inside).rotation_angle_to(still.pose_at(inside));
  EXPECT_GT(angle, 1e-4);
  EXPECT_LT(angle, 2.0 * std::sqrt(3.0) * shake.amplitude_rad + 1e-9);
  EXPECT_GT((cfg.path.pose_at(inside).t - still.pose_at(inside).t).norm(),
            1e-5);
  // Same t, same seed: the jitter is a pure function of time.
  EXPECT_NEAR(cfg.path.pose_at(inside).rotation_angle_to(
                  cfg.path.pose_at(inside)),
              0.0, 0.0);
}

TEST(StressPresets, CrowdIsCrowdedAndDynamic) {
  const SceneConfig cfg = small_stress(StressRegime::kCrowd);
  EXPECT_GE(cfg.objects.size(), 10u);
  int dynamic = 0, scripted_presence = 0;
  const double clip_s = cfg.total_frames / cfg.fps;
  for (const auto& o : cfg.objects) {
    dynamic += o.motion.is_dynamic() ? 1 : 0;
    scripted_presence +=
        (o.spawn_time > 0.0 || o.despawn_time < clip_s) ? 1 : 0;
  }
  EXPECT_GE(dynamic, 4);
  EXPECT_GE(scripted_presence, 2);
}

// ---------------------------------------------------------------------------
// Pinned render of the stress-occlusion preset at the scenario matrix's
// configuration (seed 42, 240 frames, native 640x480). The scenario-matrix
// headline (bench/expected/scenario_matrix_headline.txt) is downstream of
// these pixels, so a scene or renderer change fails here, by name, instead
// of silently moving that file. After an intended change, replace the
// digests with the values the failure prints and state the cause.

namespace {

/// FNV-1a over the intensity bytes, then the instance ids as little-endian
/// byte pairs, row-major.
std::uint64_t frame_digest(const RenderedFrame& frame) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (int y = 0; y < frame.intensity.height(); ++y) {
    const auto* row = frame.intensity.row(y);
    for (int x = 0; x < frame.intensity.width(); ++x) mix(row[x]);
  }
  for (int y = 0; y < frame.instance_ids.height(); ++y) {
    const auto* row = frame.instance_ids.row(y);
    for (int x = 0; x < frame.instance_ids.width(); ++x) {
      mix(static_cast<std::uint8_t>(row[x] & 0xff));
      mix(static_cast<std::uint8_t>(row[x] >> 8));
    }
  }
  return h;
}

}  // namespace

TEST(StressPresets, OcclusionRenderMatchesPinnedDigests) {
  const SceneConfig cfg = make_stress_scene(StressRegime::kOcclusion, 42, 240);
  SceneSimulator sim(cfg);
  // Before, during and after the occluder sweep.
  const std::pair<int, std::uint64_t> pinned[] = {
      {0, 12593901109583431769ull},
      {90, 5205963275184356742ull},
      {130, 14835557599862154023ull},
      {220, 17981662475536936932ull},
  };
  for (const auto& [index, digest] : pinned) {
    const auto frame = sim.render(index);
    ASSERT_EQ(frame.intensity.width(), 640);
    ASSERT_EQ(frame.intensity.height(), 480);
    EXPECT_EQ(frame_digest(frame), digest)
        << "stress-occlusion frame " << index << " digest moved; new value "
        << frame_digest(frame) << "ull";
  }
}
