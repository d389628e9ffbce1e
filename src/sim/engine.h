#ifndef OVS_SIM_ENGINE_H_
#define OVS_SIM_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/car_following.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "sim/sensor_faults.h"
#include "sim/signal.h"
#include "util/arena.h"
#include "util/mat.h"

namespace ovs::sim {

/// Engine-wide configuration. Defaults match the paper's experiment setup:
/// 2-hour horizon split into 10-minute sensor intervals.
struct EngineConfig {
  double dt_s = 1.0;            ///< integration step
  double interval_s = 600.0;    ///< sensor aggregation interval (10 min)
  double duration_s = 7200.0;   ///< total simulated horizon (2 h)
  CarFollowingParams car_following;
  SignalPlan signal_plan;
  bool enable_signals = true;
  /// Replace the fixed two-phase plan with vehicle-actuated control
  /// (ActuatedSignalController). Only meaningful when enable_signals.
  bool use_actuated_signals = false;
  ActuatedSignalController::Params actuated;
  /// Distance from the stop line within which a vehicle places an actuation
  /// call on its approach.
  double actuation_distance_m = 60.0;
  /// Record per-vehicle traces (link entry timestamps) into
  /// SensorData::trajectories — the raw material for GPS-trajectory style
  /// data pipelines. Off by default (costs memory on big runs).
  bool record_trajectories = false;
  /// Degrades the sensor outputs before Run() returns them (dropout,
  /// blackouts, stuck sensors, noise, spikes, NaN poisoning — see
  /// sim/sensor_faults.h). All-off by default; deterministic given the
  /// fault seed regardless of thread count.
  SensorFaultConfig sensor_faults;
  /// Runs the phase-1 movement sweep serially in canonical link order
  /// instead of sharding it over the thread pool. This is the differential
  /// reference for the determinism contract: the parallel sweep must be
  /// bitwise-identical to this mode at every thread count
  /// (tests/sim_determinism_test.cc and the CI sim-parity job enforce it).
  bool force_serial_sweep = false;

  int NumIntervals() const {
    // At least one sensor bucket even when the horizon is shorter than the
    // aggregation interval.
    return std::max(1, static_cast<int>(duration_s / interval_s + 0.5));
  }
};

/// A per-link perturbation used for the RQ3 road-work experiments: scales the
/// attainable speed and closes lanes on the affected link.
struct RoadWork {
  LinkId link = -1;
  double speed_factor = 1.0;  ///< multiplies the link speed limit, in (0, 1]
  int closed_lanes = 0;       ///< lanes taken out of service (>= 0)
};

/// A demand event: one vehicle departing at `depart_time_s` along `route`.
struct TripRequest {
  double depart_time_s = 0.0;
  Route route;
};

/// One vehicle's realized trip: the links it traversed and when it entered
/// each (plus departure/finish). This is what a GPS logger on the vehicle
/// would capture, up to map-matching.
struct VehicleTrace {
  Route route;                       ///< links actually traversed
  std::vector<double> entry_times;   ///< entry timestamp per traversed link
  double depart_time_s = 0.0;        ///< requested departure
  double finish_time_s = -1.0;       ///< arrival; -1 if still en route at end
};

/// What the city's "sensors" observed: per-link per-interval volume (vehicles
/// entering the link) and mean speed (m/s; free-flow when no vehicle was
/// observed). This pair is the paper's (volume tensor, speed tensor).
struct SensorData {
  DMat volume;  ///< [num_links x num_intervals]
  DMat speed;   ///< [num_links x num_intervals], m/s

  int spawned_trips = 0;
  int completed_trips = 0;
  int unspawned_trips = 0;       ///< demand that never found entry space
  double mean_travel_time_s = 0.0;

  /// Per-vehicle traces (only when EngineConfig::record_trajectories).
  /// Unspawned vehicles get an empty route.
  std::vector<VehicleTrace> trajectories;
};

/// FIFO of vehicle indices on one lane, front (largest pos) first: a vector
/// plus a head index. An unused lane allocates nothing (a std::deque
/// allocates ~0.5 KB up front), pop_front only advances the head, and the
/// dead prefix is dropped once it outgrows the live part, so memory stays
/// proportional to the lane's peak occupancy.
class LaneQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  int operator[](size_t i) const { return items_[head_ + i]; }
  int front() const { return items_[head_]; }
  int back() const { return items_.back(); }
  const int* begin() const { return items_.data() + head_; }
  const int* end() const { return items_.data() + items_.size(); }

  void push_back(int vehicle) { items_.push_back(vehicle); }
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  /// Dead-prefix length below which compaction is skipped: a short prefix
  /// costs a few bytes, a memmove on every other pop would cost time.
  static constexpr size_t kCompactAt = 16;

  std::vector<int> items_;
  size_t head_ = 0;
};

/// Microscopic traffic simulator: Krauss car-following on multi-lane links,
/// two-phase fixed signals, queue spillback across links, and per-interval
/// link sensors. Deterministic: same network + trips => same sensor output,
/// bitwise, at any thread count.
///
/// Vehicle state lives in structure-of-arrays form and each step runs a
/// two-phase sweep: phase 1 computes kinematics and boundary intents per
/// link in parallel (cross-link reads go through a double buffer of the
/// previous step's state), phase 2 commits completions and link transfers
/// serially in canonical link-id order. See DESIGN.md "Parallel simulator".
///
/// Where the parallelism pays: the in-step sweep only helps a lone, large
/// run. On a 4-core host a 32x32 grid with 20k trips runs about 1.3x faster
/// at 4 threads than at 1; 16x16 with 8k trips breaks even, and 8x8 with
/// 3k trips and the Manhattan preset run slower threaded (bench/README.md).
/// Batches of independent runs -- core::GenerateTrainingData -- instead run
/// whole simulations side by side on the pool; the sweeps nested inside
/// them then run serially (ThreadPool's nested-region rule), so an engine
/// never needs to know which case it is in.
///
/// Usage: construct, optionally ApplyRoadWork, AddTrip (or AddTrips) for
/// every vehicle, then Run() once. The engine is single-shot; build a new one
/// per scenario.
class Engine {
 public:
  Engine(const RoadNet* net, EngineConfig config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Applies road-work perturbations. Must precede Run().
  void ApplyRoadWork(const std::vector<RoadWork>& works);

  /// Queues one vehicle. Must precede Run(). Trips with empty routes are
  /// counted as completed immediately.
  void AddTrip(TripRequest trip);

  /// Queues every trip of `trips`, reserving the vehicle arrays for them up
  /// front. The list is consumed and left empty with its memory released:
  /// each route is freed as soon as it is copied in, so no second copy of
  /// the routes is held during Run().
  void AddTrips(std::vector<TripRequest>&& trips);

  /// Runs the full horizon and returns the sensor observations.
  SensorData Run();

  /// Number of vehicles currently on the network (valid after Run for
  /// inspection of residual congestion).
  int active_vehicles() const { return active_count_; }

  const EngineConfig& config() const { return config_; }

  // --- Introspection for the invariant/property tests -------------------
  // These expose committed (post-step) state only; none of them mutate.

  /// Total vehicles added via AddTrip with a non-empty route.
  int num_vehicles() const { return static_cast<int>(pos_.size()); }
  /// Vehicles that have entered the network so far.
  int spawned_trips() const { return spawned_count_; }
  /// Trips finished so far (includes empty-route trips completed at AddTrip).
  int completed_trips() const { return completed_count_; }
  int num_lanes(LinkId link) const {
    return static_cast<int>(link_states_[link].lanes.size());
  }
  /// Lane queue, front (largest pos) first.
  const LaneQueue& lane_queue(LinkId link, int lane) const {
    return link_states_[link].lanes[lane];
  }
  double vehicle_pos(int v) const { return pos_[v]; }
  double vehicle_speed(int v) const { return speed_[v]; }
  bool vehicle_active(int v) const { return active_[v] != 0; }
  /// Link the vehicle currently occupies, or -1 when not on the network.
  LinkId vehicle_link(int v) const {
    return active_[v] ? route_links_[route_begin_[v] + route_idx_[v]] : -1;
  }

  /// Invoked after every completed step (movement, transfers, spawning,
  /// sensing) with the engine in a consistent committed state. Test-only
  /// hook for per-step invariant checking; keep the callback cheap.
  void SetStepObserver(std::function<void(const Engine&, int step)> observer) {
    step_observer_ = std::move(observer);
  }

 private:
  struct LinkRuntime {
    /// Vehicle indices per lane, ordered front (largest pos) first.
    std::vector<LaneQueue> lanes;
    double speed_factor = 1.0;
    int usable_lanes = 1;
  };

  /// What a lane's front vehicle wants to do at the link boundary this step.
  /// At most one intent per lane per step; phase 2 commits them serially.
  enum class IntentKind : uint8_t {
    kNone = 0,
    kComplete,  ///< front vehicle finishes its trip at the link end
    kCross,     ///< front vehicle transfers into next_link/next_lane
  };
  struct LaneIntent {
    IntentKind kind = IntentKind::kNone;
    int32_t vehicle = -1;
    LinkId next_link = -1;
    double overshoot_m = 0.0;  ///< distance past the stop line, pre-clamp
  };

  int RouteLength(int v) const { return route_begin_[v + 1] - route_begin_[v]; }
  LinkId RouteLinkAt(int v, int idx) const {
    return route_links_[route_begin_[v] + idx];
  }

  /// Effective top speed on a link (limit x road-work factor).
  double LinkDesiredSpeed(LinkId id) const;

  /// Picks the lane on `link` with the most rear space; returns the lane
  /// index, or -1 if no lane can accept a vehicle at position `entry_pos`.
  /// Reads committed state; used by spawning and phase-2 re-validation.
  int PickEntryLane(LinkId link, double entry_pos) const;
  /// Same, but reads the previous step's double buffer. Phase 1 must use
  /// this for cross-link looks so its result cannot depend on how far other
  /// links have progressed within the current step.
  int PickEntryLanePrev(LinkId link, double entry_pos) const;

  /// Rear space available on a lane: position of its last vehicle minus its
  /// length, or the link length when empty.
  double LaneRearSpace(LinkId link, int lane) const;
  double LaneRearSpacePrev(LinkId link, int lane) const;

  /// Attempts to place vehicle `v` at the head of its first link.
  bool TrySpawn(int vehicle_idx, double now);

  /// One dt step: two-phase movement sweep + spawning + sensing.
  void Step(int step, double now, int interval, SensorData* out);

  /// Phase 1 for one link: advance every vehicle on it (front-to-back per
  /// lane) and record at most one boundary intent per lane into `intents`
  /// (indexed by lane_offset_[link] + lane). Writes only this link's
  /// vehicles and intent slots, reads other links only through the prev_*
  /// double buffer — safe and order-independent under any link sharding.
  void SweepLinkPhase1(LinkId id, double now, LaneIntent* intents,
                      uint32_t* link_vehicle_steps);

  /// Phase 2: commit completions and transfers serially in canonical order
  /// (ascending link id, then lane index). Each crossing picks its entry
  /// lane against *committed* state — the phase-1 look was only a one-step
  /// stale speed estimate — so earlier transfers can deterministically
  /// reject later ones when the target link fills up, and a crossing never
  /// loses its slot to same-step spawning (spawns run after phase 2).
  void ApplyTransfersPhase2(const LaneIntent* intents, double now,
                            int interval, SensorData* out);

  /// True when the movement out of `link` may cross at `now`.
  bool MovementIsGreen(LinkId link, double now) const;

  const RoadNet* net_;
  EngineConfig config_;
  SignalController signals_;
  std::unique_ptr<ActuatedSignalController> actuated_;
  std::vector<char> approach_demand_;  ///< scratch, per link per step

  // Vehicle state, structure-of-arrays. Routes are CSR-flattened: vehicle
  // v's route is route_links_[route_begin_[v] .. route_begin_[v+1]).
  std::vector<LinkId> route_links_;
  std::vector<int32_t> route_begin_{0};
  std::vector<int32_t> route_idx_;   ///< index of current link within route
  std::vector<int32_t> lane_;
  std::vector<double> pos_;
  std::vector<double> speed_;
  /// Double buffer: kinematics as committed at the end of the previous
  /// step. Phase 1 reads *other* links' vehicles only through these two.
  std::vector<double> prev_pos_;
  std::vector<double> prev_speed_;
  std::vector<double> depart_time_;
  std::vector<double> spawn_time_;
  std::vector<char> active_;
  /// One trace per vehicle; empty unless EngineConfig::record_trajectories.
  std::vector<VehicleTrace> traces_;

  std::vector<LinkRuntime> link_states_;
  /// Global lane index = lane_offset_[link] + lane; flat addressing for the
  /// per-step intent array.
  std::vector<int32_t> lane_offset_;
  int total_lanes_ = 0;
  /// Per-step scratch (intent slots, per-link counters, spawn flags); Reset
  /// at every step, so steady-state steps do no heap allocation.
  Arena step_arena_;
  std::vector<int> spawn_deferred_;  ///< scratch, reused across steps

  std::deque<int> pending_;  ///< vehicle indices not yet spawned, by depart time
  int active_count_ = 0;
  int completed_count_ = 0;
  int spawned_count_ = 0;
  double total_travel_time_s_ = 0.0;
  bool ran_ = false;
  /// Vehicle-updates executed across all steps; published as the
  /// `sim.vehicle_steps` metric when Run finishes.
  uint64_t total_vehicle_steps_ = 0;

  // Per-interval scratch accumulators for speed sensing.
  std::vector<double> speed_sum_;   // per link, current interval
  std::vector<int> speed_obs_;      // per link, current interval

  std::function<void(const Engine&, int step)> step_observer_;
};

/// Convenience wrapper: builds an engine, applies `works`, loads `trips`, and
/// runs. This is the `TOD -> (volume, speed)` oracle used by the estimators.
/// `trips` is consumed before the run starts (see Engine::AddTrips); pass it
/// with std::move when the caller no longer needs it.
SensorData Simulate(const RoadNet& net, const EngineConfig& config,
                    std::vector<TripRequest> trips,
                    const std::vector<RoadWork>& works = {});

}  // namespace ovs::sim

#endif  // OVS_SIM_ENGINE_H_
