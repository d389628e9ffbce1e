#include "check.h"

#include <cmath>
#include <cstdio>
#include <deque>

#include "json.h"

namespace perfbench {

int DiameterInLinks(const ovs::sim::RoadNet& net) {
  const int n = net.num_intersections();
  std::vector<std::vector<int>> out(n);
  for (const ovs::sim::Link& l : net.links()) out[l.from].push_back(l.to);
  int diameter = 0;
  for (int src = 0; src < n; ++src) {
    std::vector<int> hops(n, -1);
    std::deque<int> queue = {src};
    hops[src] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      diameter = std::max(diameter, hops[u]);
      for (int v : out[u]) {
        if (hops[v] < 0) {
          hops[v] = hops[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return diameter;
}

double MaxSpeedLimit(const ovs::sim::RoadNet& net) {
  double top = 0.0;
  for (const ovs::sim::Link& l : net.links()) {
    top = std::max(top, l.speed_limit_mps);
  }
  return top;
}

double TripVolumeBound(const ovs::DMat& tod, int diameter) {
  double trips = 0.0;
  for (int i = 0; i < tod.rows(); ++i) {
    for (int t = 0; t < tod.cols(); ++t) trips += std::ceil(tod.at(i, t));
  }
  return trips * diameter;
}

void Checker::FiniteNonNegative(const ovs::DMat& m, const std::string& what) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      const double v = m.at(r, c);
      if (!std::isfinite(v) || v < 0.0) {
        Fail(what + ": cell (" + std::to_string(r) + "," + std::to_string(c) +
             ") is " + std::to_string(v));
        return;
      }
    }
  }
}

void Checker::Sample(const ovs::core::TrainingSample& s, double max_speed,
                     int diameter, const std::string& what) {
  const size_t before = problems_.size();
  FiniteNonNegative(s.tod.mat(), what + " tod");
  FiniteNonNegative(s.volume, what + " volume");
  FiniteNonNegative(s.speed, what + " speed");
  if (problems_.size() != before) return;
  // A link's speed is the mean of its vehicles' speeds, and a mean of values
  // at the limit can round above it (13.890000000000038 for 13.89 m/s), so
  // allow 1e-9 relative.
  if (s.speed.Max() > max_speed * (1.0 + 1e-9)) {
    Fail(what + ": speed " + std::to_string(s.speed.Max()) +
         " m/s above the highest speed limit " + std::to_string(max_speed));
  }
  const double bound = TripVolumeBound(s.tod.mat(), diameter);
  if (s.volume.Sum() > bound) {
    Fail(what + ": summed volume " + std::to_string(s.volume.Sum()) +
         " above the trip bound " + std::to_string(bound));
  }
}

void Checker::RecoveredTod(const ovs::DMat& tod, double tod_scale,
                           const std::string& what) {
  const size_t before = problems_.size();
  FiniteNonNegative(tod, what);
  if (problems_.size() == before && tod.Max() > tod_scale) {
    Fail(what + ": cell " + std::to_string(tod.Max()) + " above tod_scale " +
         std::to_string(tod_scale));
  }
}

void Checker::LossFalls(const std::vector<double>& curve,
                        const std::string& what) {
  if (curve.size() < 2 || !std::isfinite(curve.back()) ||
      !(curve.back() < curve.front())) {
    Fail(what + ": loss curve does not fall (" +
         (curve.empty() ? std::string("empty")
                        : std::to_string(curve.front()) + " -> " +
                              std::to_string(curve.back())) +
         ")");
  }
}

std::string Checker::RecoverResponse(const std::string& line,
                                     const std::string& id, int num_od,
                                     int intervals, double tod_scale,
                                     ovs::serve::Response* parsed) {
  Json doc;
  std::string error;
  if (!ParseJson(line, &doc, &error)) {
    Fail(id + ": response does not parse: " + error);
    return "";
  }
  const Json* rid = doc.Find("id");
  const Json* ok = doc.Find("ok");
  if (rid == nullptr || rid->string != id) {
    Fail(id + ": response carries the wrong id");
    return "";
  }
  if (ok == nullptr || !ok->boolean) {
    Fail(id + ": response is not ok: " + line.substr(0, 200));
    return "";
  }
  const Json* version = doc.Find("snapshot_version");
  const Json* loss = doc.Find("loss");
  const Json* tod = doc.Find("tod");
  if (version == nullptr || version->number < 1 || loss == nullptr ||
      loss->kind != Json::Kind::kNumber || tod == nullptr ||
      static_cast<int>(tod->array.size()) != num_od) {
    Fail(id + ": response has the wrong shape");
    return "";
  }
  ovs::DMat m(num_od, intervals);
  for (int r = 0; r < num_od; ++r) {
    const Json& row = tod->array[r];
    if (static_cast<int>(row.array.size()) != intervals) {
      Fail(id + ": tod row " + std::to_string(r) + " has the wrong length");
      return "";
    }
    for (int c = 0; c < intervals; ++c) {
      const Json& cell = row.array[c];
      m.at(r, c) =
          cell.kind == Json::Kind::kNumber ? cell.number : std::nan("");
    }
  }
  const size_t before = problems_.size();
  RecoveredTod(m, tod_scale, id + " tod");
  if (problems_.size() != before) return "";
  if (parsed != nullptr) {
    parsed->id = id;
    const Json* city = doc.Find("city");
    parsed->city = city != nullptr ? city->string : "";
    parsed->snapshot_version = static_cast<uint64_t>(version->number);
    parsed->loss = loss->number;
    parsed->tod = std::move(m);
    parsed->has_tod = true;
  }
  return line.substr(line.find("\"tod\":"));
}

void Checker::ReloadResponse(const std::string& line, const std::string& id) {
  Json doc;
  const bool parsed = ParseJson(line, &doc, nullptr);
  const Json* rid = parsed ? doc.Find("id") : nullptr;
  const Json* ok = parsed ? doc.Find("ok") : nullptr;
  const Json* version = parsed ? doc.Find("snapshot_version") : nullptr;
  if (rid == nullptr || rid->string != id || ok == nullptr || !ok->boolean ||
      version == nullptr || version->number < 2) {
    Fail(id + ": bad reload response: " + line.substr(0, 200));
  }
}

void Checker::SameSeedSameTod(const std::string& key,
                              const std::string& tod_bytes,
                              const std::string& what) {
  auto [it, inserted] = first_tod_.emplace(key, tod_bytes);
  if (!inserted && it->second != tod_bytes) {
    Fail(what + ": same-seed request " + key +
         " returned different tod bytes than its first answer");
  }
}

namespace {

/// Runs one check on a fresh checker; `expect_ok` says whether the input is
/// the valid original or a broken copy.
template <typename Fn>
int Expect(const char* name, bool expect_ok, Fn&& fn) {
  Checker c;
  fn(c);
  if (c.ok() == expect_ok) return 0;
  std::fprintf(stderr, "perfbench selftest: %s was %s\n", name,
               expect_ok ? "rejected" : "not caught");
  return 1;
}

}  // namespace

int CheckerSelfTest() {
  int misses = 0;
  // A 2x2 grid: four intersections, both directions of the four roads.
  ovs::sim::RoadNet net;
  for (int i = 0; i < 4; ++i) net.AddIntersection(i % 2 * 100.0, i / 2 * 100.0);
  net.AddRoad(0, 1, 100.0, 1, 10.0);
  net.AddRoad(1, 3, 100.0, 1, 10.0);
  net.AddRoad(3, 2, 100.0, 1, 12.0);
  net.AddRoad(2, 0, 100.0, 1, 10.0);
  const int diameter = DiameterInLinks(net);
  const double top = MaxSpeedLimit(net);
  misses += diameter == 2 ? 0 : 1;
  misses += top == 12.0 ? 0 : 1;

  ovs::core::TrainingSample good;
  good.tod = ovs::od::TodTensor(ovs::DMat(2, 3, 1.5));  // 6 cells -> 12 trips
  good.volume = ovs::DMat(8, 3, 1.0);                   // 24 = 12 trips x 2
  good.speed = ovs::DMat(8, 3, 9.0);
  misses += Expect("valid sample", true,
                   [&](Checker& c) { c.Sample(good, top, diameter, "s"); });
  auto broken = [&](const char* name, auto mutate) {
    ovs::core::TrainingSample s = good;
    mutate(s);
    misses += Expect(name, false,
                     [&](Checker& c) { c.Sample(s, top, diameter, "s"); });
  };
  broken("NaN speed", [](auto& s) { s.speed.at(0, 0) = std::nan(""); });
  broken("infinite volume", [](auto& s) { s.volume.at(1, 1) = INFINITY; });
  broken("negative tod", [](auto& s) { s.tod.at(0, 0) = -1.0; });
  broken("speed above limit", [](auto& s) { s.speed.at(2, 2) = 12.5; });
  broken("volume above trip bound", [](auto& s) { s.volume.at(0, 0) = 2.0; });

  const ovs::DMat tod(2, 3, 4.0);
  misses += Expect("valid recovered tod", true,
                   [&](Checker& c) { c.RecoveredTod(tod, 5.0, "t"); });
  misses += Expect("tod above tod_scale", false,
                   [&](Checker& c) { c.RecoveredTod(tod, 3.9, "t"); });

  misses += Expect("falling loss", true,
                   [](Checker& c) { c.LossFalls({1.0, 0.5, 0.2}, "l"); });
  misses += Expect("flat loss", false,
                   [](Checker& c) { c.LossFalls({1.0, 1.2, 1.0}, "l"); });
  misses += Expect("NaN loss", false,
                   [](Checker& c) { c.LossFalls({1.0, NAN}, "l"); });

  ovs::serve::Response r;
  r.id = "r1";
  r.city = "c";
  r.snapshot_version = 1;
  r.loss = 0.01;
  r.tod = tod;
  r.has_tod = true;
  const std::string line = ovs::serve::SerializeResponse(r);
  auto response = [&](const char* name, bool expect_ok, const std::string& l,
                      int rows) {
    misses += Expect(name, expect_ok, [&](Checker& c) {
      c.RecoverResponse(l, "r1", rows, 3, 5.0);
    });
  };
  response("valid response", true, line, 2);
  response("truncated response", false, line.substr(0, line.size() - 3), 2);
  response("wrong tod shape", false, line, 3);
  ovs::serve::Response err;
  err.id = "r1";
  err.status = ovs::Status::ResourceExhausted("queue full");
  response("error response", false, ovs::serve::SerializeResponse(err), 2);
  r.tod.at(1, 2) = 7.0;
  response("response tod above tod_scale", false,
           ovs::serve::SerializeResponse(r), 2);

  misses += Expect("same tod after reload", true, [&](Checker& c) {
    c.SameSeedSameTod("k", "\"tod\":[[1]]}", "a");
    c.SameSeedSameTod("k", "\"tod\":[[1]]}", "b");
  });
  misses += Expect("changed tod after reload", false, [&](Checker& c) {
    c.SameSeedSameTod("k", "\"tod\":[[1]]}", "a");
    c.SameSeedSameTod("k", "\"tod\":[[1.0000000000000002]]}", "b");
  });
  misses += Expect("bad reload response", false, [&](Checker& c) {
    c.ReloadResponse(ovs::serve::SerializeResponse(err), "r1");
  });
  return misses;
}

}  // namespace perfbench
