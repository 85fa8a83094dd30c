#include "datagen/generators.h"

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace st4ml {
namespace {

TEST(GeneratorsTest, NycEventsAreDeterministicAndInBounds) {
  NycEventOptions options;
  options.count = 5000;
  auto a = GenerateNycEvents(options);
  auto b = GenerateNycEvents(options);
  ASSERT_EQ(a.size(), 5000u);
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].attr, b[i].attr);
    EXPECT_TRUE(options.extent.ContainsPoint(Point(a[i].x, a[i].y)));
    EXPECT_TRUE(options.range.Contains(a[i].time));
    EXPECT_NE(a[i].attr.view().find("fare="), std::string::npos);
  }
  options.seed = 999;
  auto c = GenerateNycEvents(options);
  EXPECT_NE(c[0].x, a[0].x);  // different seed diverges
}

TEST(GeneratorsTest, PortoTrajectoriesHaveOrderedSamples) {
  PortoTrajOptions options;
  options.count = 400;
  auto trajs = GeneratePortoTrajectories(options);
  ASSERT_EQ(trajs.size(), 400u);
  for (const TrajRecord& t : trajs) {
    ASSERT_GE(t.points.size(), 2u);
    for (size_t i = 1; i < t.points.size(); ++i) {
      EXPECT_EQ(t.points[i].time - t.points[i - 1].time, 15);
      EXPECT_TRUE(
          options.extent.ContainsPoint(Point(t.points[i].x, t.points[i].y)));
    }
  }
}

TEST(GeneratorsTest, AirQualityCountInvariant) {
  AirQualityOptions options;
  auto readings = GenerateAirQuality(options);
  size_t per_station =
      static_cast<size_t>((options.range.Seconds() + options.interval_s) /
                          options.interval_s);
  EXPECT_EQ(readings.size(), static_cast<size_t>(options.stations) *
                                 static_cast<size_t>(options.replicas) *
                                 per_station);
  // Every reading parses as a number.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_GT(std::atof(readings[i].attr.c_str()), 0.0);
  }
}

TEST(GeneratorsTest, OsmPostalAreasTileTheExtent) {
  OsmOptions options;
  options.poi_count = 100;
  OsmData osm = GenerateOsm(options);
  EXPECT_EQ(osm.pois.size(), 100u);
  EXPECT_EQ(osm.postal_areas.size(),
            static_cast<size_t>(options.areas_x * options.areas_y));
  // Every POI, and every random probe, lies in at least one postal area —
  // the areas share jittered corners, so they tile without gaps.
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Point p(rng.Uniform(options.extent.x_min, options.extent.x_max),
            rng.Uniform(options.extent.y_min, options.extent.y_max));
    int containing = 0;
    for (const Polygon& area : osm.postal_areas) {
      if (area.ContainsPoint(p)) ++containing;
    }
    EXPECT_GE(containing, 1) << "uncovered point " << p.x << "," << p.y;
  }
}

TEST(GeneratorsTest, RoadNetworkPairsForwardAndReverse) {
  RoadNetworkOptions options;
  auto network = GenerateRoadNetwork(options);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->num_nodes(),
            static_cast<size_t>(options.nx * options.ny));
  ASSERT_GT(network->num_segments(), 0u);
  ASSERT_EQ(network->num_segments() % 2, 0u);
  for (size_t s = 0; s + 1 < network->num_segments(); s += 2) {
    const RoadSegment& forward = network->segment(static_cast<int32_t>(s));
    const RoadSegment& reverse = network->segment(static_cast<int32_t>(s + 1));
    EXPECT_EQ(forward.id, -reverse.id);
    EXPECT_EQ(forward.from_node, reverse.to_node);
    EXPECT_EQ(forward.to_node, reverse.from_node);
    EXPECT_GT(forward.length_m, 0.0);
  }
  // Grid interior nodes have degree >= 2 outgoing segments.
  int isolated = 0;
  for (size_t n = 0; n < network->num_nodes(); ++n) {
    if (network->outgoing(static_cast<int32_t>(n)).empty()) ++isolated;
  }
  EXPECT_EQ(isolated, 0);
}

TEST(GeneratorsTest, CameraTrajectoriesStayWithinDayAndNetwork) {
  RoadNetworkOptions road_options;
  auto network = GenerateRoadNetwork(road_options);
  CameraTrajOptions options;
  options.count = 300;
  auto trajs = GenerateCameraTrajectories(*network, options);
  ASSERT_GT(trajs.size(), 250u);  // a few may be skipped as too short
  Mbr roamable = network->extent().Buffered(0.01);
  for (const TrajRecord& t : trajs) {
    ASSERT_GE(t.points.size(), 2u);
    for (size_t i = 0; i < t.points.size(); ++i) {
      EXPECT_TRUE(options.day.Contains(t.points[i].time))
          << "sample outside the day";
      EXPECT_TRUE(roamable.ContainsPoint(Point(t.points[i].x, t.points[i].y)));
      if (i > 0) {
        EXPECT_GT(t.points[i].time, t.points[i - 1].time);
      }
    }
  }
  // Deterministic for a fixed seed.
  auto again = GenerateCameraTrajectories(*network, options);
  ASSERT_EQ(again.size(), trajs.size());
  EXPECT_EQ(again[5].points[0].time, trajs[5].points[0].time);
}

}  // namespace
}  // namespace st4ml
