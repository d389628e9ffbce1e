#ifndef OVS_TESTS_SIM_INVARIANTS_H_
#define OVS_TESTS_SIM_INVARIANTS_H_

// Per-step physical invariant checks for the simulator, shared by
// sim_determinism_test.cc (scenario families) and property_test.cc
// (randomized configs). Installed as an Engine step observer, so every
// single dt step of a run is checked, not just the final outputs:
//
//   1. Conservation: spawned == on-network + completed, every step.
//   2. Queue consistency: each active vehicle sits in exactly one lane
//      queue, on the link its route says it occupies, at a position within
//      [0, link length], with non-negative speed <= the speed limit.
//   3. Per-lane FIFO: a lane queue evolves only by at most one pop from the
//      front (the phase-2 commit) plus pushes to the back (transfers and
//      spawns); surviving vehicles keep their relative order, and
//      front-to-back positions stay non-increasing. Bumper separation stays
//      within kMaxTransientOverlap of a full vehicle length: a follower may
//      briefly close below the vehicle length when its leader's crossing
//      bid is rejected by phase 2 (the follower moved on the leader's
//      optimistic phase-1 kinematics); the model brakes it out on the next
//      step and the ordering itself never flips.
//   4. Capacity: a lane never holds more vehicles than physically fit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/roadnet.h"

namespace ovs::sim {

class SimInvariantChecker {
 public:
  /// Largest transient bumper-gap shortfall tolerated (meters); see the
  /// FIFO invariant note above. Entry rules guarantee proper spacing, so
  /// compression can never admit extra vehicles.
  static constexpr double kMaxTransientOverlap = 1.0;

  /// `engine` must outlive the checker; call Install(engine) afterwards.
  /// Construct after all AddTrip calls so the empty-route completion
  /// baseline is captured correctly.
  SimInvariantChecker(const RoadNet* net, Engine* engine, std::string tag)
      : net_(net), tag_(std::move(tag)),
        baseline_completed_(engine->completed_trips()) {
    prev_queues_.resize(net_->num_links());
    for (LinkId l = 0; l < net_->num_links(); ++l) {
      prev_queues_[l].resize(engine->num_lanes(l));
    }
  }

  void Install(Engine* engine) {
    engine->SetStepObserver(
        [this](const Engine& e, int step) { Check(e, step); });
  }

  int steps_checked() const { return steps_; }

  void Check(const Engine& e, int step) {
    ++steps_;
    // One failing step is enough signal; don't flood the log with the
    // thousands of consecutive failures that would follow it.
    if (::testing::Test::HasFailure()) return;
    const double veh_len = e.config().car_following.vehicle_length;

    // --- 1. Conservation --------------------------------------------------
    const int completed = e.completed_trips() - baseline_completed_;
    EXPECT_EQ(e.spawned_trips(), e.active_vehicles() + completed)
        << tag_ << ": conservation violated at step " << step;

    // --- 2..4. Lane-by-lane checks ---------------------------------------
    std::vector<char> seen(e.num_vehicles(), 0);
    int on_network = 0;
    for (LinkId l = 0; l < net_->num_links(); ++l) {
      const Link& link = net_->link(l);
      for (int lane = 0; lane < e.num_lanes(l); ++lane) {
        const LaneQueue& q = e.lane_queue(l, lane);
        std::vector<int>& prev = prev_queues_[l][lane];

        // Capacity: vehicles are at least veh_len apart (checked below), so
        // a lane of length L fits at most floor(L / veh_len) + 1 of them.
        EXPECT_LE((static_cast<double>(q.size()) - 1.0) * veh_len,
                  link.length_m + 1e-6)
            << tag_ << ": lane over capacity, link " << l << " lane " << lane
            << " holds " << q.size() << " at step " << step;

        double prev_pos = link.length_m + 1e-9;
        for (size_t i = 0; i < q.size(); ++i) {
          const int v = q[i];
          ++on_network;
          ASSERT_GE(v, 0);
          ASSERT_LT(v, e.num_vehicles());
          EXPECT_FALSE(seen[v])
              << tag_ << ": vehicle " << v << " in two queues, step " << step;
          seen[v] = 1;
          EXPECT_TRUE(e.vehicle_active(v))
              << tag_ << ": inactive vehicle " << v << " queued, step " << step;
          EXPECT_EQ(e.vehicle_link(v), l)
              << tag_ << ": vehicle " << v << " queue/route link mismatch";
          const double pos = e.vehicle_pos(v);
          EXPECT_GE(pos, 0.0) << tag_ << ": negative position, step " << step;
          EXPECT_LE(pos, link.length_m + 1e-9)
              << tag_ << ": vehicle past link end, step " << step;
          // Front-to-back order with (near) vehicle-length separation (the
          // front vehicle itself is only bounded by the link end).
          const double required =
              i == 0 ? prev_pos : prev_pos - veh_len + kMaxTransientOverlap;
          EXPECT_LE(pos, required)
              << tag_ << ": overlap in link " << l << " lane " << lane
              << " at step " << step << " (veh " << v << ")";
          prev_pos = pos;
          EXPECT_GE(e.vehicle_speed(v), 0.0)
              << tag_ << ": negative speed, step " << step;
          EXPECT_LE(e.vehicle_speed(v), link.speed_limit_mps + 1e-9)
              << tag_ << ": speed above limit, step " << step;
        }

        // FIFO: q == prev minus at most one front pop, plus new ids at the
        // back. Relative order of survivors is untouched.
        size_t drop = 0;
        if (!prev.empty() && (q.empty() || q.front() != prev.front())) {
          drop = 1;
        }
        const size_t surviving = prev.size() - drop;
        ASSERT_GE(q.size(), surviving)
            << tag_ << ": lane lost mid-queue vehicles, link " << l
            << " lane " << lane << " step " << step;
        for (size_t i = 0; i < surviving; ++i) {
          EXPECT_EQ(q[i], prev[i + drop])
              << tag_ << ": FIFO order broken, link " << l << " lane " << lane
              << " step " << step;
        }
        prev.assign(q.begin(), q.end());
      }
    }
    EXPECT_EQ(on_network, e.active_vehicles())
        << tag_ << ": queue population != active count, step " << step;
  }

 private:
  const RoadNet* net_;
  std::string tag_;
  int baseline_completed_;
  std::vector<std::vector<std::vector<int>>> prev_queues_;
  int steps_ = 0;
};

}  // namespace ovs::sim

#endif  // OVS_TESTS_SIM_INVARIANTS_H_
