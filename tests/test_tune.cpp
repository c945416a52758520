/// Tests for the offline configuration search (DESIGN.md §15) and the
/// config validation it relies on to reject invalid grid points.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bfs/config.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/engine.hpp"
#include "engine/frontdoor.hpp"
#include "harness/graph500.hpp"
#include "tune/search.hpp"

namespace numabfs {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

// ---------------------------------------------------------------------------
// Coordinate descent
// ---------------------------------------------------------------------------

/// Separable concave objective with its peak at (3, 1, 2).
std::optional<double> bowl(const std::vector<int>& ix) {
  const double peaks[3] = {3.0, 1.0, 2.0};
  double s = 100.0;
  for (size_t d = 0; d < 3; ++d)
    s -= (ix[d] - peaks[d]) * (ix[d] - peaks[d]);
  return s;
}

TEST(CoordinateDescent, FindsSeparableOptimum) {
  const std::vector<tune::Dim> dims = {{"a", 6}, {"b", 4}, {"c", 5}};
  const auto r = tune::coordinate_descent(dims, bowl, {0, 0, 0});
  EXPECT_EQ(r.best, (std::vector<int>{3, 1, 2}));
  EXPECT_DOUBLE_EQ(r.best_score, 100.0);
  // Pruning keeps evaluations well under the 120-point grid.
  EXPECT_LT(r.evaluations, 40);
  EXPECT_GT(r.rounds, 0);
}

TEST(CoordinateDescent, DeterministicAcrossReruns) {
  const std::vector<tune::Dim> dims = {{"a", 6}, {"b", 4}, {"c", 5}};
  const auto r1 = tune::coordinate_descent(dims, bowl, {5, 3, 4});
  const auto r2 = tune::coordinate_descent(dims, bowl, {5, 3, 4});
  EXPECT_EQ(r1.best, r2.best);
  EXPECT_EQ(r1.best_score, r2.best_score);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_EQ(r1.log, r2.log);
}

TEST(CoordinateDescent, SeedsGuaranteeAtLeastHandScore) {
  // An objective with a deceptive ridge: descent from {0,0} stalls at 50,
  // but the hand seed {4, 3} scores 90 — the result must keep it.
  const auto trap = [](const std::vector<int>& ix) -> std::optional<double> {
    if (ix[0] == 4 && ix[1] == 3) return 90.0;
    if (ix[0] == 0 && ix[1] == 0) return 50.0;
    return 10.0;
  };
  const std::vector<tune::Dim> dims = {{"a", 5}, {"b", 4}};
  const auto r = tune::coordinate_descent(dims, trap, {0, 0}, {{4, 3}});
  EXPECT_EQ(r.best, (std::vector<int>{4, 3}));
  EXPECT_DOUBLE_EQ(r.best_score, 90.0);
}

TEST(CoordinateDescent, InvalidPointsAreCountedAndAvoided) {
  const auto obj = [](const std::vector<int>& ix) -> std::optional<double> {
    if (ix[0] >= 3) return std::nullopt;  // invalid region
    return static_cast<double>(ix[0]);
  };
  const auto r = tune::coordinate_descent({{"a", 6}}, obj, {0});
  EXPECT_EQ(r.best, (std::vector<int>{2}));
  EXPECT_GE(r.invalid, 1);
}

TEST(CoordinateDescent, ThrowsWhenNoSeedIsValid) {
  const auto never = [](const std::vector<int>&) -> std::optional<double> {
    return std::nullopt;
  };
  EXPECT_THROW(tune::coordinate_descent({{"a", 3}}, never, {0}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Config validation (satellite: contradictory knob combos)
// ---------------------------------------------------------------------------

TEST(ConfigValidation, ContradictoryCombosGetActionableMessages) {
  bfs::Config c;
  c.parallel_allgather = true;  // sharing == none: contradiction
  EXPECT_NE(c.validate().find("sharing"), std::string::npos);

  bfs::Config k = bfs::original();
  k.exchange_chunks = 4;  // codec off: nothing to pipeline
  EXPECT_NE(k.validate().find("codec"), std::string::npos);

  EXPECT_TRUE(bfs::compressed().validate().empty());
}

TEST(ConfigValidation, Bfs2dAndServingConfigs) {
  bfs2d::Bfs2dOptions o;
  o.exchange_chunks = 4;  // codec off
  EXPECT_NE(o.validate().find("codec"), std::string::npos);
  o.codec = bfs::CodecMode::gate;
  EXPECT_TRUE(o.validate().empty());

  engine::EngineConfig ec;
  ec.max_batch = 0;
  EXPECT_FALSE(ec.validate().empty());
  ec.max_batch = engine::kMaxLanes + 1;
  EXPECT_FALSE(ec.validate().empty());

  // Both serving tiers share one admission rule set, message for message.
  engine::FrontDoorConfig fdc;
  EXPECT_TRUE(fdc.validate().empty());
  fdc.max_batch = engine::kMaxLanes + 1;
  EXPECT_EQ(fdc.validate(), ec.validate());
  fdc.max_batch = 8;
  fdc.queue_depth = 0;
  ec.max_batch = 8;
  ec.queue_depth = 0;
  EXPECT_EQ(fdc.validate(), "queue_depth must be >= 1");
  EXPECT_EQ(ec.validate(), fdc.validate());
}

TEST(ConfigValidation, DriversRejectInvalidConfigsUpFront) {
  const GraphBundle b = GraphBundle::make(10, 16, 1, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  bfs::Config bad = bfs::original();
  bad.exchange_chunks = 4;
  EXPECT_THROW(
      {
        engine::EngineConfig ec;
        engine::QueryEngine qe(e.cluster(), e.dist(), bad, ec);
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace numabfs
