#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ovs::sim {

namespace {

/// Block size for the light per-link ParallelFors (actuation scan, sensing,
/// interval flush). Small grids stay on the calling thread and only
/// city-scale nets fan out.
constexpr int64_t kLinkGrain = 256;

/// Block size for the phase-1 movement sweep, which does the Krauss physics
/// for every vehicle on the link and is an order of magnitude heavier per
/// link. The grain only affects scheduling, never results: phase-1 links are
/// mutually independent by construction.
constexpr int64_t kMoveGrain = 64;

}  // namespace

Engine::Engine(const RoadNet* net, EngineConfig config)
    : net_(net), config_(config), signals_(net, config.signal_plan) {
  CHECK(net != nullptr);
  CHECK_GT(config_.dt_s, 0.0);
  CHECK_GT(config_.interval_s, 0.0);
  CHECK_GT(config_.duration_s, 0.0);
  link_states_.resize(net_->num_links());
  lane_offset_.resize(net_->num_links());
  for (const Link& l : net_->links()) {
    link_states_[l.id].lanes.resize(l.num_lanes);
    link_states_[l.id].usable_lanes = l.num_lanes;
    lane_offset_[l.id] = total_lanes_;
    total_lanes_ += l.num_lanes;
  }
  speed_sum_.resize(net_->num_links(), 0.0);
  speed_obs_.resize(net_->num_links(), 0);
  if (config_.enable_signals && config_.use_actuated_signals) {
    actuated_ = std::make_unique<ActuatedSignalController>(net_, config_.actuated);
    approach_demand_.resize(net_->num_links(), false);
  }
}

bool Engine::MovementIsGreen(LinkId link, double now) const {
  if (!config_.enable_signals) return true;
  if (actuated_ != nullptr) return actuated_->IsGreen(link);
  return signals_.IsGreen(link, now);
}

void Engine::ApplyRoadWork(const std::vector<RoadWork>& works) {
  CHECK(!ran_) << "ApplyRoadWork must precede Run";
  for (const RoadWork& w : works) {
    CHECK_GE(w.link, 0);
    CHECK_LT(w.link, net_->num_links());
    CHECK_GT(w.speed_factor, 0.0);
    CHECK_LE(w.speed_factor, 1.0);
    LinkRuntime& state = link_states_[w.link];
    state.speed_factor = w.speed_factor;
    state.usable_lanes =
        std::max(1, net_->link(w.link).num_lanes - std::max(0, w.closed_lanes));
  }
}

void Engine::AddTrip(TripRequest trip) {
  CHECK(!ran_) << "AddTrip must precede Run";
  if (trip.route.empty()) {
    ++completed_count_;
    return;
  }
  // Route sanity: consecutive links must share an intersection.
  for (size_t i = 0; i + 1 < trip.route.size(); ++i) {
    CHECK_EQ(net_->link(trip.route[i]).to, net_->link(trip.route[i + 1]).from)
        << "disconnected route";
  }
  route_links_.insert(route_links_.end(), trip.route.begin(), trip.route.end());
  route_begin_.push_back(static_cast<int32_t>(route_links_.size()));
  route_idx_.push_back(0);
  lane_.push_back(0);
  pos_.push_back(0.0);
  speed_.push_back(0.0);
  depart_time_.push_back(trip.depart_time_s);
  spawn_time_.push_back(-1.0);
  active_.push_back(0);
  if (config_.record_trajectories) traces_.emplace_back();
}

void Engine::AddTrips(std::vector<TripRequest>&& trips) {
  // Exact reservations: the arrays would otherwise grow by doubling, and
  // several engines may be running side by side (GenerateTrainingData).
  size_t vehicles = 0, links = 0;
  for (const TripRequest& trip : trips) {
    if (trip.route.empty()) continue;
    ++vehicles;
    links += trip.route.size();
  }
  const size_t total = pos_.size() + vehicles;
  route_links_.reserve(route_links_.size() + links);
  route_begin_.reserve(total + 1);
  route_idx_.reserve(total);
  lane_.reserve(total);
  pos_.reserve(total);
  speed_.reserve(total);
  depart_time_.reserve(total);
  spawn_time_.reserve(total);
  active_.reserve(total);
  if (config_.record_trajectories) traces_.reserve(total);
  for (TripRequest& trip : trips) AddTrip(std::move(trip));
  std::vector<TripRequest>().swap(trips);
}

double Engine::LinkDesiredSpeed(LinkId id) const {
  return net_->link(id).speed_limit_mps * link_states_[id].speed_factor;
}

double Engine::LaneRearSpace(LinkId link, int lane) const {
  const auto& q = link_states_[link].lanes[lane];
  if (q.empty()) return net_->link(link).length_m;
  return pos_[q.back()] - config_.car_following.vehicle_length;
}

double Engine::LaneRearSpacePrev(LinkId link, int lane) const {
  const auto& q = link_states_[link].lanes[lane];
  if (q.empty()) return net_->link(link).length_m;
  return prev_pos_[q.back()] - config_.car_following.vehicle_length;
}

int Engine::PickEntryLane(LinkId link, double entry_pos) const {
  const LinkRuntime& state = link_states_[link];
  int best = -1;
  double best_space = -1.0;
  for (int lane = 0; lane < state.usable_lanes; ++lane) {
    const double space = LaneRearSpace(link, lane);
    if (space - entry_pos >= config_.car_following.min_gap &&
        space > best_space) {
      best = lane;
      best_space = space;
    }
  }
  return best;
}

int Engine::PickEntryLanePrev(LinkId link, double entry_pos) const {
  const LinkRuntime& state = link_states_[link];
  int best = -1;
  double best_space = -1.0;
  for (int lane = 0; lane < state.usable_lanes; ++lane) {
    const double space = LaneRearSpacePrev(link, lane);
    if (space - entry_pos >= config_.car_following.min_gap &&
        space > best_space) {
      best = lane;
      best_space = space;
    }
  }
  return best;
}

bool Engine::TrySpawn(int vehicle_idx, double now) {
  const LinkId first = RouteLinkAt(vehicle_idx, 0);
  const int lane = PickEntryLane(first, 0.0);
  if (lane < 0) return false;
  active_[vehicle_idx] = 1;
  lane_[vehicle_idx] = lane;
  pos_[vehicle_idx] = 0.0;
  speed_[vehicle_idx] = 0.5 * LinkDesiredSpeed(first);
  spawn_time_[vehicle_idx] = now;
  route_idx_[vehicle_idx] = 0;
  link_states_[first].lanes[lane].push_back(vehicle_idx);
  ++active_count_;
  ++spawned_count_;
  if (config_.record_trajectories) {
    traces_[vehicle_idx].route.push_back(first);
    traces_[vehicle_idx].entry_times.push_back(now);
  }
  return true;
}

void Engine::SweepLinkPhase1(LinkId id, double now, LaneIntent* intents,
                            uint32_t* link_vehicle_steps) {
  const CarFollowingParams& cf = config_.car_following;
  const double dt = config_.dt_s;
  const Link& link = net_->link(id);
  LinkRuntime& state = link_states_[id];
  const double desired = LinkDesiredSpeed(id);
  uint32_t steps_here = 0;

  const int lanes = static_cast<int>(state.lanes.size());
  for (int lane = 0; lane < lanes; ++lane) {
    auto& lane_q = state.lanes[lane];
    // Front-to-back: followers see their leader's already-updated state,
    // which keeps platoons stable at dt = 1 s. The whole lane is owned by
    // this call, so that read is same-thread and deterministic.
    for (size_t i = 0; i < lane_q.size(); ++i) {
      const int vid = lane_q[i];
      ++steps_here;
      double gap;
      double leader_speed;
      bool green = false;
      LinkId next = -1;
      const bool last_link = route_idx_[vid] + 1 == RouteLength(vid);

      if (i > 0) {
        const int leader = lane_q[i - 1];
        gap = pos_[leader] - cf.vehicle_length - pos_[vid];
        leader_speed = speed_[leader];
      } else {
        // Front vehicle: look across the intersection. All cross-link reads
        // below go through the prev_* double buffer, so the outcome cannot
        // depend on how far other links have progressed within this step.
        const double dist_to_end = link.length_m - pos_[vid];
        if (last_link) {
          // Destination at the link end: drive freely off the network.
          gap = dist_to_end + 100.0;
          leader_speed = desired;
        } else {
          green = MovementIsGreen(id, now);
          next = RouteLinkAt(vid, route_idx_[vid] + 1);
          const int next_lane = green ? PickEntryLanePrev(next, 0.0) : -1;
          if (next_lane >= 0) {
            // Gap extends into the next link up to its rear space. This is
            // only a speed estimate: the authoritative entry decision is
            // re-made by phase 2 against committed state.
            gap = dist_to_end + LaneRearSpacePrev(next, next_lane) - cf.min_gap;
            const auto& next_q = link_states_[next].lanes[next_lane];
            leader_speed = next_q.empty() ? desired : prev_speed_[next_q.back()];
          } else {
            // Red light, or no room as of the previous step: pull up to the
            // stop line. If green, the vehicle still bids for a crossing
            // below — space may open this very step, and phase 2 must get
            // the chance to claim it before same-step spawning does.
            gap = dist_to_end;
            leader_speed = 0.0;
          }
        }
      }

      speed_[vid] = KraussNextSpeed(speed_[vid], desired, gap, leader_speed,
                                    dt, cf);
      const double new_pos = pos_[vid] + speed_[vid] * dt;

      if (new_pos >= link.length_m && i == 0) {
        if (last_link) {
          LaneIntent& intent = intents[lane_offset_[id] + lane];
          intent.kind = IntentKind::kComplete;
          intent.vehicle = vid;
        } else if (green) {
          LaneIntent& intent = intents[lane_offset_[id] + lane];
          intent.kind = IntentKind::kCross;
          intent.vehicle = vid;
          intent.next_link = next;
          intent.overshoot_m = new_pos - link.length_m;
        } else {
          speed_[vid] = 0.0;  // held at the red light
        }
      }
      pos_[vid] = std::min(new_pos, link.length_m);
    }
  }
  link_vehicle_steps[id] = steps_here;
}

void Engine::ApplyTransfersPhase2(const LaneIntent* intents, double now,
                                  int interval, SensorData* out) {
  const CarFollowingParams& cf = config_.car_following;
  // Canonical commit order — ascending link id, then lane index — is the
  // whole determinism story: phase 1 may run under any sharding, but the
  // queue mutations below always happen in this exact sequence.
  const int num_links = net_->num_links();
  for (LinkId id = 0; id < num_links; ++id) {
    LinkRuntime& state = link_states_[id];
    const int lanes = static_cast<int>(state.lanes.size());
    for (int lane = 0; lane < lanes; ++lane) {
      const LaneIntent& intent = intents[lane_offset_[id] + lane];
      if (intent.kind == IntentKind::kNone) continue;
      auto& lane_q = state.lanes[lane];
      const int vid = intent.vehicle;
      CHECK(!lane_q.empty());
      CHECK_EQ(lane_q.front(), vid);

      if (intent.kind == IntentKind::kComplete) {
        lane_q.pop_front();
        active_[vid] = 0;
        --active_count_;
        ++completed_count_;
        // Travel time counts from the *requested* departure: time spent
        // queued waiting to enter the network is part of the trip.
        total_travel_time_s_ += now - depart_time_[vid];
        if (config_.record_trajectories) traces_[vid].finish_time_s = now;
        continue;
      }

      // kCross: the entry lane is picked here, against committed state —
      // the phase-1 look was a one-step-stale estimate, and an earlier
      // transfer this phase may have consumed the space it saw (or opened
      // new space). Rejection is itself deterministic (same canonical order
      // every run), and the vehicle simply waits at the stop line.
      const int next_lane = PickEntryLane(intent.next_link, 0.0);
      if (next_lane < 0) {
        pos_[vid] = net_->link(id).length_m;
        speed_[vid] = 0.0;
        continue;
      }
      const double rear =
          LaneRearSpace(intent.next_link, next_lane) - cf.min_gap;
      lane_q.pop_front();
      ++route_idx_[vid];
      lane_[vid] = next_lane;
      pos_[vid] = std::clamp(intent.overshoot_m, 0.0, rear);
      link_states_[intent.next_link].lanes[next_lane].push_back(vid);
      out->volume.at(intent.next_link, interval) += 1.0;
      if (config_.record_trajectories) {
        traces_[vid].route.push_back(intent.next_link);
        traces_[vid].entry_times.push_back(now);
      }
    }
  }
}

void Engine::Step(int step, double now, int interval, SensorData* out) {
  // Actuated control: collect per-approach calls, then advance the
  // controller before movement decisions are made this step.
  if (actuated_ != nullptr) {
    // Per-link read-only scan with a disjoint per-link flag write — safe
    // and bitwise-deterministic for any thread count.
    ParallelFor(0, net_->num_links(), kLinkGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t id = lo; id < hi; ++id) {
        const Link& link = net_->link(static_cast<LinkId>(id));
        char demand = 0;
        for (const auto& lane_q : link_states_[id].lanes) {
          if (lane_q.empty()) continue;
          if (link.length_m - pos_[lane_q.front()] <=
              config_.actuation_distance_m) {
            demand = 1;
            break;
          }
        }
        approach_demand_[id] = demand;
      }
    });
    actuated_->Update(now, approach_demand_);
  }

  // Publish the previous step's committed kinematics into the read buffer
  // phase 1 uses for cross-link looks. Vector assignment reuses capacity,
  // so this is a flat memcpy per step.
  prev_pos_ = pos_;
  prev_speed_ = speed_;

  step_arena_.Reset();
  LaneIntent* intents = step_arena_.NewArray<LaneIntent>(total_lanes_);
  uint32_t* link_vehicle_steps =
      step_arena_.NewArray<uint32_t>(net_->num_links());

  // Phase 1: per-link kinematics + boundary intents. Links are mutually
  // independent (cross-link reads hit the prev_* buffer, writes touch only
  // the link's own vehicles and intent slots), so any sharding produces the
  // same result. force_serial_sweep runs the identical kernel on the
  // calling thread — the differential reference the determinism tests
  // compare against.
  const auto sweep = [&](int64_t lo, int64_t hi) {
    for (int64_t id = lo; id < hi; ++id) {
      SweepLinkPhase1(static_cast<LinkId>(id), now, intents,
                      link_vehicle_steps);
    }
  };
  if (config_.force_serial_sweep) {
    sweep(0, net_->num_links());
  } else {
    ParallelFor(0, net_->num_links(), kMoveGrain, sweep);
  }
  for (int id = 0; id < net_->num_links(); ++id) {
    total_vehicle_steps_ += link_vehicle_steps[id];
  }

  // Phase 2: serial canonical-order commit of completions and transfers.
  ApplyTransfersPhase2(intents, now, interval, out);

  // Spawn pending demand whose departure time has arrived. FIFO is enforced
  // per entry link: a full link defers its own queue without starving other
  // origins.
  if (!pending_.empty() && depart_time_[pending_.front()] <= now) {
    char* blocked = step_arena_.NewArray<char>(net_->num_links());
    spawn_deferred_.clear();
    while (!pending_.empty()) {
      const int vid = pending_.front();
      if (depart_time_[vid] > now) break;
      pending_.pop_front();
      const LinkId entry = RouteLinkAt(vid, 0);
      if (blocked[entry] || !TrySpawn(vid, now)) {
        blocked[entry] = 1;
        spawn_deferred_.push_back(vid);
        continue;
      }
      out->volume.at(entry, interval) += 1.0;
    }
    // Deferred vehicles go back to the front, in order, before untouched ones.
    for (auto it = spawn_deferred_.rbegin(); it != spawn_deferred_.rend();
         ++it) {
      pending_.push_front(*it);
    }
  }

  // Speed sensing: every active vehicle contributes its current speed to its
  // current link's accumulator. Each link's accumulators are written only by
  // the thread owning its block, and the per-link summation order (lane,
  // then queue position) is independent of the blocking, so the sums are
  // bitwise-identical for any thread count.
  ParallelFor(0, net_->num_links(), kLinkGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t id = lo; id < hi; ++id) {
      for (const auto& lane_q : link_states_[id].lanes) {
        for (int vid : lane_q) {
          speed_sum_[id] += speed_[vid];
          speed_obs_[id] += 1;
        }
      }
    }
  });

  OVS_COUNTER_INC("sim.steps");
  if (step_observer_) step_observer_(*this, step);
}

SensorData Engine::Run() {
  CHECK(!ran_) << "Engine::Run is single-shot";
  ran_ = true;
  OVS_TRACE_SCOPE("sim.run");
  OVS_COUNTER_INC("sim.runs");

  const int intervals = config_.NumIntervals();
  SensorData out;
  out.volume = DMat(net_->num_links(), intervals);
  out.speed = DMat(net_->num_links(), intervals);

  // Order demand by departure time. stable_sort: equal departure times keep
  // AddTrip order, independent of the sort implementation.
  std::vector<int> order(pos_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return depart_time_[a] < depart_time_[b];
  });
  pending_.assign(order.begin(), order.end());

  const int steps = static_cast<int>(config_.duration_s / config_.dt_s + 0.5);
  int current_interval = 0;
  for (int step = 0; step < steps; ++step) {
    const double now = step * config_.dt_s;
    const int interval =
        std::min(intervals - 1, static_cast<int>(now / config_.interval_s));
    if (interval != current_interval) {
      // Flush the finished interval's speed accumulators (disjoint per-link
      // writes; deterministic for any thread count).
      OVS_TRACE_SCOPE("sim.interval_flush");
      OVS_COUNTER_INC("sim.interval_flushes");
      // Sampled at interval cadence, not per step: a full bench run emits
      // millions of steps, which would dominate the trace file.
      OVS_TRACE_COUNTER("sim.active_vehicles",
                        static_cast<double>(active_count_));
      ParallelFor(0, net_->num_links(), kLinkGrain,
                  [&](int64_t lo, int64_t hi) {
                    for (int64_t l = lo; l < hi; ++l) {
                      out.speed.at(static_cast<int>(l), current_interval) =
                          speed_obs_[l] > 0
                              ? speed_sum_[l] / speed_obs_[l]
                              : LinkDesiredSpeed(static_cast<LinkId>(l));
                      speed_sum_[l] = 0.0;
                      speed_obs_[l] = 0;
                    }
                  });
      current_interval = interval;
    }
    Step(step, now, interval, &out);
  }
  // Flush the final interval.
  for (int l = 0; l < net_->num_links(); ++l) {
    out.speed.at(l, current_interval) =
        speed_obs_[l] > 0 ? speed_sum_[l] / speed_obs_[l] : LinkDesiredSpeed(l);
  }

  // Sensor degradation happens after the physics: the simulated city is
  // intact, only its measurements are corrupted.
  if (config_.sensor_faults.any()) {
    ApplySensorFaults(config_.sensor_faults, &out.speed, &out.volume);
    OVS_COUNTER_ADD("sim.sensor_fault_cells",
                    static_cast<uint64_t>(CountInvalidCells(out.speed)));
  }

  OVS_COUNTER_ADD("sim.vehicle_steps", total_vehicle_steps_);
  OVS_COUNTER_ADD("sim.completed_trips",
                  static_cast<uint64_t>(completed_count_));

  out.spawned_trips = spawned_count_;
  out.completed_trips = completed_count_;
  out.unspawned_trips = static_cast<int>(pending_.size());
  out.mean_travel_time_s =
      completed_count_ > 0 ? total_travel_time_s_ / completed_count_ : 0.0;
  if (config_.record_trajectories) {
    out.trajectories.reserve(traces_.size());
    for (size_t v = 0; v < traces_.size(); ++v) {
      traces_[v].depart_time_s = depart_time_[v];
      out.trajectories.push_back(std::move(traces_[v]));
    }
  }
  return out;
}

SensorData Simulate(const RoadNet& net, const EngineConfig& config,
                    std::vector<TripRequest> trips,
                    const std::vector<RoadWork>& works) {
  Engine engine(&net, config);
  engine.ApplyRoadWork(works);
  engine.AddTrips(std::move(trips));
  return engine.Run();
}

}  // namespace ovs::sim
