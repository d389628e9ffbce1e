#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "sim/car_following.h"
#include "sim/engine.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "sim/signal.h"

namespace ovs::sim {
namespace {

// ----------------------------------------------------------------- RoadNet --

TEST(RoadNetTest, GridCounts) {
  RoadNet net = MakeGridNetwork(3, 4);
  EXPECT_EQ(net.num_intersections(), 12);
  // Roads: 3*3 horizontal + 2*4 vertical = 17, each road = 2 links.
  EXPECT_EQ(net.num_links(), 34);
  EXPECT_TRUE(net.Validate().ok());
}

TEST(RoadNetTest, LinkEndpointsConsistent) {
  RoadNet net = MakeGridNetwork(2, 2, 100.0);
  for (const Link& l : net.links()) {
    const Intersection& from = net.intersection(l.from);
    const Intersection& to = net.intersection(l.to);
    EXPECT_NEAR(std::hypot(from.x - to.x, from.y - to.y), l.length_m, 1e-9);
  }
}

TEST(RoadNetTest, IncomingOutgoingIndexes) {
  RoadNet net = MakeGridNetwork(3, 3);
  // Center node (id 4) has 4 incoming and 4 outgoing links.
  EXPECT_EQ(net.intersection(4).incoming.size(), 4u);
  EXPECT_EQ(net.intersection(4).outgoing.size(), 4u);
  // Corner (id 0) has 2 each.
  EXPECT_EQ(net.intersection(0).incoming.size(), 2u);
  EXPECT_EQ(net.intersection(0).outgoing.size(), 2u);
}

TEST(RoadNetTest, DistanceAndBearing) {
  RoadNet net;
  IntersectionId a = net.AddIntersection(0, 0);
  IntersectionId b = net.AddIntersection(0, 100);
  LinkId up = net.AddLink(a, b, 100, 1, 10);
  EXPECT_DOUBLE_EQ(net.Distance(a, b), 100.0);
  EXPECT_TRUE(net.LinkIsNorthSouth(up));
  EXPECT_NEAR(net.LinkBearing(up), M_PI / 2.0, 1e-9);
}

TEST(RoadNetTest, EastWestLinkClassified) {
  RoadNet net;
  IntersectionId a = net.AddIntersection(0, 0);
  IntersectionId b = net.AddIntersection(100, 10);
  LinkId east = net.AddLink(a, b, 101, 1, 10);
  EXPECT_FALSE(net.LinkIsNorthSouth(east));
}

TEST(RoadNetTest, ValidateEmptyFails) {
  RoadNet net;
  EXPECT_FALSE(net.Validate().ok());
}

TEST(RoadNetTest, FreeFlowTime) {
  Link l;
  l.length_m = 278.0;
  l.speed_limit_mps = 13.9;
  EXPECT_NEAR(l.FreeFlowTime(), 20.0, 1e-9);
}

// ----------------------------------------------------------------- Router --

TEST(RouterTest, StraightLineRoute) {
  RoadNet net = MakeGridNetwork(1, 4, 100.0);
  Router router(&net);
  StatusOr<Route> route = router.ShortestRoute(0, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->size(), 3u);
  // Route is connected and ends at 3.
  EXPECT_EQ(net.link(route->front()).from, 0);
  EXPECT_EQ(net.link(route->back()).to, 3);
}

TEST(RouterTest, SameOriginDestEmpty) {
  RoadNet net = MakeGridNetwork(2, 2);
  Router router(&net);
  StatusOr<Route> route = router.ShortestRoute(1, 1);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->empty());
}

TEST(RouterTest, NoPathReturnsNotFound) {
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 0);
  net.AddIntersection(200, 0);
  net.AddLink(0, 1, 100, 1, 10);  // one-way 0 -> 1 only
  Router router(&net);
  EXPECT_FALSE(router.ShortestRoute(1, 0).ok());
  EXPECT_FALSE(router.ShortestRoute(0, 2).ok());
}

TEST(RouterTest, PicksFasterDetour) {
  // Two parallel paths: direct slow link vs two-hop fast links.
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 100);
  net.AddIntersection(200, 0);
  LinkId slow = net.AddLink(0, 2, 200, 1, 2.0);    // 100 s
  net.AddLink(0, 1, 150, 1, 15.0);                 // 10 s
  net.AddLink(1, 2, 150, 1, 15.0);                 // 10 s
  Router router(&net);
  StatusOr<Route> route = router.ShortestRoute(0, 2);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->size(), 2u);
  EXPECT_NE((*route)[0], slow);
}

TEST(RouterTest, CostOverrideChangesRoute) {
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 100);
  net.AddIntersection(200, 0);
  LinkId direct = net.AddLink(0, 2, 200, 1, 10.0);
  LinkId leg1 = net.AddLink(0, 1, 150, 1, 10.0);
  LinkId leg2 = net.AddLink(1, 2, 150, 1, 10.0);
  Router router(&net);
  // Free flow: direct (20 s) beats detour (30 s).
  StatusOr<Route> free_route = router.ShortestRoute(0, 2);
  ASSERT_TRUE(free_route.ok());
  EXPECT_EQ(free_route->size(), 1u);
  // Congest the direct link.
  std::vector<double> costs(net.num_links());
  costs[direct] = 1000.0;
  costs[leg1] = 15.0;
  costs[leg2] = 15.0;
  StatusOr<Route> jammed = router.ShortestRouteWithCosts(0, 2, costs);
  ASSERT_TRUE(jammed.ok());
  EXPECT_EQ(jammed->size(), 2u);
}

TEST(RouterTest, CachedRouteStable) {
  RoadNet net = MakeGridNetwork(3, 3);
  Router router(&net);
  StatusOr<Route> a = router.CachedRoute(0, 8);
  StatusOr<Route> b = router.CachedRoute(0, 8);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(RouterTest, RouteMetrics) {
  RoadNet net = MakeGridNetwork(1, 3, 100.0, 1, 10.0);
  Router router(&net);
  Route route = router.ShortestRoute(0, 2).value();
  EXPECT_NEAR(router.RouteLength(route), 200.0, 1e-9);
  EXPECT_NEAR(router.RouteFreeFlowTime(route), 20.0, 1e-9);
}

// ----------------------------------------------------- Car following --

TEST(CarFollowingTest, SafeSpeedZeroAtZeroGap) {
  CarFollowingParams p;
  EXPECT_DOUBLE_EQ(KraussSafeSpeed(0.0, 10.0, p), 0.0);
  EXPECT_DOUBLE_EQ(KraussSafeSpeed(-1.0, 10.0, p), 0.0);
}

TEST(CarFollowingTest, SafeSpeedIncreasesWithGap) {
  CarFollowingParams p;
  double prev = 0.0;
  for (double gap = 1.0; gap < 100.0; gap += 10.0) {
    const double v = KraussSafeSpeed(gap, 0.0, p);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(CarFollowingTest, SafeSpeedIncreasesWithLeaderSpeed) {
  CarFollowingParams p;
  EXPECT_GT(KraussSafeSpeed(10.0, 15.0, p), KraussSafeSpeed(10.0, 0.0, p));
}

TEST(CarFollowingTest, NextSpeedRespectsAcceleration) {
  CarFollowingParams p;
  const double v = KraussNextSpeed(5.0, 20.0, 1000.0, 20.0, 1.0, p);
  EXPECT_NEAR(v, 5.0 + p.max_accel, 1e-9);
}

TEST(CarFollowingTest, NextSpeedNeverNegative) {
  CarFollowingParams p;
  EXPECT_GE(KraussNextSpeed(0.5, 10.0, 0.0, 0.0, 1.0, p), 0.0);
}

TEST(CarFollowingTest, NextSpeedCappedByDesired) {
  CarFollowingParams p;
  EXPECT_LE(KraussNextSpeed(30.0, 10.0, 1000.0, 30.0, 1.0, p), 10.0 + 1e-9);
}

TEST(CarFollowingTest, FreeFlowApproachesDesired) {
  CarFollowingParams p;
  double v = 0.0;
  for (int i = 0; i < 60; ++i) v = FreeFlowNextSpeed(v, 13.9, 1.0, p);
  EXPECT_NEAR(v, 13.9, 1e-9);
}

TEST(CarFollowingTest, StoppingBeforeWall) {
  // A vehicle approaching a standing obstacle must come to rest without
  // passing it when updated with the Krauss rule.
  CarFollowingParams p;
  double pos = 0.0, v = 13.9;
  const double wall = 120.0;
  for (int step = 0; step < 100; ++step) {
    v = KraussNextSpeed(v, 13.9, wall - pos, 0.0, 1.0, p);
    pos += v;
  }
  EXPECT_LE(pos, wall + 1e-6);
  EXPECT_NEAR(v, 0.0, 0.3);
}

// ----------------------------------------------------------------- Signal --

TEST(SignalTest, PhasesAlternate) {
  RoadNet net = MakeGridNetwork(3, 3, 100.0);
  SignalPlan plan;
  plan.all_red_s = 0.0;
  SignalController signals(&net, plan);
  // Pick an incoming link of the center intersection.
  const Intersection& center = net.intersection(4);
  ASSERT_GE(center.incoming.size(), 2u);
  LinkId some_link = center.incoming[0];
  int greens = 0;
  const double cycle = plan.CycleLength();
  for (double t = 0.0; t < cycle; t += 1.0) {
    if (signals.IsGreen(some_link, t)) ++greens;
  }
  // Green for one of the two phases: half the cycle.
  EXPECT_NEAR(greens, static_cast<int>(cycle / 2.0), 2);
}

TEST(SignalTest, ConflictingApproachesNeverBothGreen) {
  RoadNet net = MakeGridNetwork(3, 3, 100.0);
  SignalController signals(&net, SignalPlan());
  const Intersection& center = net.intersection(4);
  LinkId ns = -1, ew = -1;
  for (LinkId l : center.incoming) {
    if (net.LinkIsNorthSouth(l)) {
      ns = l;
    } else {
      ew = l;
    }
  }
  ASSERT_GE(ns, 0);
  ASSERT_GE(ew, 0);
  for (double t = 0.0; t < 300.0; t += 0.5) {
    EXPECT_FALSE(signals.IsGreen(ns, t) && signals.IsGreen(ew, t))
        << "conflicting green at t=" << t;
  }
}

TEST(SignalTest, AllRedBetweenPhases) {
  RoadNet net = MakeGridNetwork(3, 3, 100.0);
  SignalPlan plan;
  plan.all_red_s = 5.0;
  SignalController signals(&net, plan);
  const Intersection& center = net.intersection(4);
  int red_both = 0;
  const int steps = static_cast<int>(plan.CycleLength());
  for (int s = 0; s < steps; ++s) {
    bool any = false;
    for (LinkId l : center.incoming) {
      any = any || signals.IsGreen(l, static_cast<double>(s));
    }
    if (!any) ++red_both;
  }
  EXPECT_GE(red_both, 8);  // two all-red windows of ~5 s
}

TEST(SignalTest, SingleApproachAlwaysGreen) {
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 0);
  LinkId l = net.AddLink(0, 1, 100, 1, 10);
  SignalController signals(&net, SignalPlan());
  for (double t = 0.0; t < 100.0; t += 7.0) {
    EXPECT_TRUE(signals.IsGreen(l, t));
  }
}

TEST(SignalTest, UnsignalizedAlwaysGreen) {
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 0, /*signalized=*/false);
  net.AddIntersection(200, 0);
  net.AddIntersection(100, -100);
  LinkId in1 = net.AddLink(0, 1, 100, 1, 10);
  net.AddLink(3, 1, 100, 1, 10);
  net.AddLink(1, 2, 100, 1, 10);
  SignalController signals(&net, SignalPlan());
  for (double t = 0.0; t < 200.0; t += 3.0) EXPECT_TRUE(signals.IsGreen(in1, t));
}

// ----------------------------------------------------------------- Engine --

EngineConfig ShortConfig(double duration = 1200.0) {
  EngineConfig config;
  config.duration_s = duration;
  config.interval_s = 600.0;
  return config;
}

TEST(EngineTest, SingleVehicleCompletesAtFreeFlowTime) {
  RoadNet net = MakeGridNetwork(1, 4, 200.0, 1, 10.0);
  EngineConfig config = ShortConfig();
  config.enable_signals = false;
  Engine engine(&net, config);
  Router router(&net);
  TripRequest trip{10.0, router.ShortestRoute(0, 3).value()};
  engine.AddTrip(trip);
  SensorData out = engine.Run();
  EXPECT_EQ(out.spawned_trips, 1);
  EXPECT_EQ(out.completed_trips, 1);
  // 600 m at <= 10 m/s from half speed start: at least 60 s, at most ~90 s.
  EXPECT_GE(out.mean_travel_time_s, 55.0);
  EXPECT_LE(out.mean_travel_time_s, 120.0);
}

TEST(EngineTest, EmptyRouteCountsCompleted) {
  RoadNet net = MakeGridNetwork(2, 2);
  Engine engine(&net, ShortConfig());
  engine.AddTrip({0.0, {}});
  SensorData out = engine.Run();
  EXPECT_EQ(out.completed_trips, 1);
  EXPECT_EQ(out.spawned_trips, 0);
}

TEST(EngineTest, VolumeCountsEntries) {
  RoadNet net = MakeGridNetwork(1, 3, 200.0, 1, 10.0);
  EngineConfig config = ShortConfig();
  config.enable_signals = false;
  Engine engine(&net, config);
  Router router(&net);
  Route route = router.ShortestRoute(0, 2).value();
  for (int i = 0; i < 10; ++i) {
    engine.AddTrip({i * 10.0, route});
  }
  SensorData out = engine.Run();
  // Every vehicle should enter both links of the route exactly once.
  double entries_first = 0.0, entries_second = 0.0;
  for (int t = 0; t < out.volume.cols(); ++t) {
    entries_first += out.volume.at(route[0], t);
    entries_second += out.volume.at(route[1], t);
  }
  EXPECT_EQ(entries_first, 10.0);
  EXPECT_EQ(entries_second, 10.0);
  EXPECT_EQ(out.completed_trips, 10);
}

TEST(EngineTest, SpeedDefaultsToFreeFlowWhenEmpty) {
  RoadNet net = MakeGridNetwork(2, 2, 300.0, 1, 12.0);
  Engine engine(&net, ShortConfig());
  SensorData out = engine.Run();
  for (int l = 0; l < net.num_links(); ++l) {
    for (int t = 0; t < out.speed.cols(); ++t) {
      EXPECT_DOUBLE_EQ(out.speed.at(l, t), 12.0);
    }
  }
}

TEST(EngineTest, Deterministic) {
  RoadNet net = MakeGridNetwork(3, 3, 200.0, 1, 10.0);
  Router router(&net);
  std::vector<TripRequest> trips;
  for (int i = 0; i < 50; ++i) {
    trips.push_back({i * 5.0, router.CachedRoute(0, 8).value()});
  }
  SensorData a = Simulate(net, ShortConfig(), trips);
  SensorData b = Simulate(net, ShortConfig(), trips);
  EXPECT_NEAR(Rmse(a.volume, b.volume), 0.0, 1e-12);
  EXPECT_NEAR(Rmse(a.speed, b.speed), 0.0, 1e-12);
}

// AddTrips (what Simulate uses) is only a reserving batch of AddTrip calls:
// the same trips, including an empty route, give the same bits either way.
TEST(EngineTest, AddTripsMatchesAddTripLoop) {
  RoadNet net = MakeGridNetwork(3, 3, 200.0, 1, 10.0);
  Router router(&net);
  std::vector<TripRequest> trips;
  for (int i = 0; i < 60; ++i) {
    trips.push_back({i * 4.0, router.CachedRoute(i % 9, 8 - i % 9).value()});
  }
  Engine one_by_one(&net, ShortConfig());
  for (const TripRequest& trip : trips) one_by_one.AddTrip(trip);
  Engine batched(&net, ShortConfig());
  std::vector<TripRequest> consumed = trips;
  batched.AddTrips(std::move(consumed));
  EXPECT_TRUE(consumed.empty());
  EXPECT_EQ(batched.num_vehicles(), one_by_one.num_vehicles());
  EXPECT_EQ(batched.completed_trips(), one_by_one.completed_trips());
  const SensorData a = one_by_one.Run();
  const SensorData b = batched.Run();
  for (int l = 0; l < a.volume.rows(); ++l) {
    for (int t = 0; t < a.volume.cols(); ++t) {
      ASSERT_EQ(a.volume.at(l, t), b.volume.at(l, t));
      ASSERT_EQ(a.speed.at(l, t), b.speed.at(l, t));
    }
  }
  EXPECT_EQ(a.completed_trips, b.completed_trips);
  EXPECT_EQ(a.mean_travel_time_s, b.mean_travel_time_s);
}

// The lane FIFO against std::deque through enough pops to compact the dead
// prefix many times, with the queue emptied and refilled along the way.
TEST(LaneQueueTest, MatchesDequeAcrossCompaction) {
  LaneQueue q;
  std::deque<int> ref;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.begin(), q.end());
  int next = 0;
  for (int round = 0; round < 400; ++round) {
    const int pushes = round % 7 == 0 ? 40 : round % 3;
    for (int i = 0; i < pushes; ++i) {
      q.push_back(next);
      ref.push_back(next);
      ++next;
    }
    const int pops = round % 5 == 0 ? 30 : 1;
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_EQ(q.front(), ref.front());
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(q.back(), ref.back());
    }
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(q[i], ref[i]);
    ASSERT_TRUE(std::equal(q.begin(), q.end(), ref.begin(), ref.end()));
  }
}

TEST(EngineTest, CongestionReducesSpeed) {
  RoadNet net = MakeGridNetwork(1, 3, 300.0, 1, 13.9);
  Router router(&net);
  Route route = router.ShortestRoute(0, 2).value();
  EngineConfig config = ShortConfig();
  config.enable_signals = false;

  auto mean_speed_on = [&](int vehicles) {
    std::vector<TripRequest> trips;
    for (int i = 0; i < vehicles; ++i) {
      trips.push_back({i * 600.0 / vehicles, route});
    }
    SensorData out = Simulate(net, config, trips);
    return out.speed.at(route[0], 0);
  };
  const double light = mean_speed_on(5);
  const double heavy = mean_speed_on(400);
  EXPECT_LT(heavy, light);
}

TEST(EngineTest, RoadWorkSlowsLink) {
  RoadNet net = MakeGridNetwork(1, 3, 300.0, 1, 13.9);
  Router router(&net);
  Route route = router.ShortestRoute(0, 2).value();
  EngineConfig config = ShortConfig();
  config.enable_signals = false;
  std::vector<TripRequest> trips;
  for (int i = 0; i < 30; ++i) trips.push_back({i * 10.0, route});

  SensorData normal = Simulate(net, config, trips);
  RoadWork work;
  work.link = route[0];
  work.speed_factor = 0.3;
  SensorData slowed = Simulate(net, config, trips, {work});
  EXPECT_LT(slowed.speed.at(route[0], 0), normal.speed.at(route[0], 0) * 0.5);
}

TEST(EngineTest, LaneClosureReducesThroughput) {
  // Single-link route so the closed lane is the only bottleneck: demand
  // above one lane's entry capacity but within two lanes'.
  RoadNet net = MakeGridNetwork(1, 2, 400.0, 2, 13.9);
  Router router(&net);
  Route route = router.ShortestRoute(0, 1).value();
  ASSERT_EQ(route.size(), 1u);
  EngineConfig config = ShortConfig();
  config.enable_signals = false;
  std::vector<TripRequest> trips;
  for (int i = 0; i < 1500; ++i) trips.push_back({i * 0.2, route});

  SensorData normal = Simulate(net, config, trips);
  RoadWork work;
  work.link = route[0];
  work.closed_lanes = 1;
  SensorData closed = Simulate(net, config, trips, {work});
  // Half the lanes => queueing to enter; trips take materially longer
  // (waiting-to-enter time counts toward travel time).
  EXPECT_GT(closed.mean_travel_time_s, normal.mean_travel_time_s * 1.2);
}

TEST(EngineTest, RedLightHoldsVehicle) {
  // A single vehicle on a signalized 2-link route either waits at the light
  // (longer travel time) or passes on green; across many offsets at least
  // some wait. Compare with signals disabled.
  RoadNet net = MakeGridNetwork(3, 3, 200.0, 1, 10.0);
  Router router(&net);
  Route route = router.CachedRoute(0, 2).value();
  ASSERT_GE(route.size(), 2u);

  EngineConfig with_signals = ShortConfig();
  EngineConfig without = ShortConfig();
  without.enable_signals = false;

  double delay_sum = 0.0;
  for (int depart = 0; depart < 60; depart += 7) {
    std::vector<TripRequest> trips{{static_cast<double>(depart), route}};
    SensorData a = Simulate(net, with_signals, trips);
    SensorData b = Simulate(net, without, trips);
    delay_sum += a.mean_travel_time_s - b.mean_travel_time_s;
  }
  EXPECT_GT(delay_sum, 10.0);
}

TEST(EngineTest, SpillbackBlocksUpstream) {
  // Saturate a short downstream link; the upstream link's speed must drop
  // because vehicles cannot discharge into it.
  RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(500, 0);
  net.AddIntersection(560, 0);   // short downstream link (fits ~7 vehicles)
  net.AddIntersection(1060, 0);
  LinkId upstream = net.AddLink(0, 1, 500, 1, 13.9);
  LinkId shortlink = net.AddLink(1, 2, 60, 1, 13.9);
  LinkId out_link = net.AddLink(2, 3, 500, 1, 2.0);  // slow sink
  Route route{upstream, shortlink, out_link};
  EngineConfig config = ShortConfig();
  config.enable_signals = false;
  std::vector<TripRequest> trips;
  for (int i = 0; i < 240; ++i) trips.push_back({i * 1.0, route});
  SensorData out = Simulate(net, config, trips);
  // The queue spills back past the short link: the upstream link's mean
  // speed in the first interval is far below its 13.9 m/s limit.
  EXPECT_LT(out.speed.at(upstream, 0), 7.0);
}

TEST(EngineTest, UnspawnedTripsReported) {
  // One-lane 100 m entry link cannot absorb 2000 simultaneous departures.
  RoadNet net = MakeGridNetwork(1, 2, 100.0, 1, 10.0);
  Router router(&net);
  Route route = router.ShortestRoute(0, 1).value();
  EngineConfig config = ShortConfig(600.0);
  config.enable_signals = false;
  std::vector<TripRequest> trips;
  for (int i = 0; i < 2000; ++i) trips.push_back({0.0, route});
  SensorData out = Simulate(net, config, trips);
  EXPECT_GT(out.unspawned_trips, 0);
  EXPECT_EQ(out.spawned_trips + out.unspawned_trips, 2000);
}

TEST(EngineTest, FifoSpawnPerEntryLinkDoesNotStarveOthers) {
  // Entry link A is jammed; entry link B must still spawn its demand.
  RoadNet net = MakeGridNetwork(2, 2, 200.0, 1, 10.0);
  Router router(&net);
  // Two routes from different origins to the same destination 3.
  Route route_a = router.CachedRoute(0, 3).value();
  Route route_b = router.CachedRoute(1, 3).value();
  EngineConfig config = ShortConfig(600.0);
  Engine engine(&net, config);
  for (int i = 0; i < 500; ++i) engine.AddTrip({0.0, route_a});
  for (int i = 0; i < 5; ++i) engine.AddTrip({1.0, route_b});
  SensorData out = engine.Run();
  // All 5 of B's vehicles entered (their entry link differs from A's).
  double b_entries = 0.0;
  for (int t = 0; t < out.volume.cols(); ++t) {
    b_entries += out.volume.at(route_b[0], t);
  }
  EXPECT_GE(b_entries, 5.0);
}

TEST(EngineTest, AddTripRejectsDisconnectedRoute) {
  RoadNet net = MakeGridNetwork(2, 2, 200.0, 1, 10.0);
  Engine engine(&net, ShortConfig());
  // Find two links that do not share an endpoint.
  LinkId a = 0;
  LinkId b = -1;
  for (const Link& l : net.links()) {
    if (l.from != net.link(a).to) {
      b = l.id;
      break;
    }
  }
  ASSERT_GE(b, 0);
  EXPECT_DEATH(engine.AddTrip({0.0, {a, b}}), "disconnected");
}

TEST(EngineTest, NumIntervalsRounding) {
  EngineConfig config;
  config.duration_s = 7200.0;
  config.interval_s = 600.0;
  EXPECT_EQ(config.NumIntervals(), 12);
}

}  // namespace
}  // namespace ovs::sim
