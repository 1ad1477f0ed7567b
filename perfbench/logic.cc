#include "logic.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_set>

#include "util/rng.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

int64_t SegmentEnd(int64_t n, int64_t segments, int64_t s) {
  return (s + 1) * n / segments;
}

int64_t BucketKey(const dot::Grid& grid, const dot::OdtInput& odt,
                  int64_t tod_slots) {
  int64_t o = grid.CellIndex(grid.Locate(odt.origin));
  int64_t d = grid.CellIndex(grid.Locate(odt.destination));
  int64_t slot = dot::SecondsOfDay(odt.departure_time) * tod_slots / 86400;
  return (o * grid.num_cells() + d) * tod_slots + slot;
}

std::vector<Request> SimulatedPool(const dot::City& city,
                                   const dot::TripConfig& trips, int64_t n,
                                   uint64_t seed, const dot::Grid& grid,
                                   int64_t tod_slots) {
  dot::TripConfig config = trips;
  config.num_trips = n;
  dot::TripGenerator gen(&city, seed);
  std::vector<dot::TripSample> samples =
      dot::ToSamples(gen.Generate(config), dot::TrajectoryFilter{});
  std::vector<Request> pool;
  pool.reserve(samples.size());
  for (const dot::TripSample& s : samples) {
    pool.push_back({s.odt, s.travel_time_minutes,
                    BucketKey(grid, s.odt, tod_slots),
                    static_cast<int64_t>(pool.size())});
  }
  return pool;
}

std::vector<Request> HotList(const std::vector<Request>& pool, int64_t hot,
                             int64_t n, uint64_t seed) {
  hot = std::min<int64_t>(hot, static_cast<int64_t>(pool.size()));
  std::vector<Request> list;
  if (hot <= 0) return list;
  dot::Rng rng(seed);
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  list.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    list.push_back(pool[order[static_cast<size_t>(rng.UniformInt(0, hot - 1))]]);
  }
  return list;
}

std::vector<Request> ZipfList(const std::vector<Request>& pool, int64_t n,
                              double s, uint64_t seed) {
  std::vector<Request> list;
  if (pool.empty()) return list;
  dot::Rng rng(seed);
  std::vector<size_t> by_rank(pool.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  rng.Shuffle(&by_rank);
  std::vector<double> cumulative(pool.size());
  double total = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative[r] = total;
  }
  list.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double u = rng.Uniform() * total;
    size_t r = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    list.push_back(pool[by_rank[std::min(r, pool.size() - 1)]]);
  }
  return list;
}

std::vector<Request> ColdList(const std::vector<Request>& pool, int64_t n,
                              uint64_t seed) {
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  dot::Rng rng(seed);
  rng.Shuffle(&order);
  std::unordered_set<int64_t> seen;
  std::vector<Request> list;
  for (size_t i : order) {
    if (static_cast<int64_t>(list.size()) >= n) break;
    if (seen.insert(pool[i].bucket).second) list.push_back(pool[i]);
  }
  return list;
}

uint64_t HashRequests(const std::vector<Request>& list) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const Request& r : list) {
    mix(&r.odt.origin.lng, sizeof(double));
    mix(&r.odt.origin.lat, sizeof(double));
    mix(&r.odt.destination.lng, sizeof(double));
    mix(&r.odt.destination.lat, sizeof(double));
    mix(&r.odt.departure_time, sizeof(int64_t));
  }
  return h;
}

int64_t DistinctBuckets(const std::vector<Request>& list) {
  std::unordered_set<int64_t> seen;
  for (const Request& r : list) seen.insert(r.bucket);
  return static_cast<int64_t>(seen.size());
}

std::vector<Request> FirstOccurrences(const std::vector<Request>& list) {
  std::unordered_set<int64_t> seen;
  std::vector<Request> out;
  for (const Request& r : list) {
    if (seen.insert(r.query).second) out.push_back(r);
  }
  return out;
}

CheckResult CheckResponses(int64_t num_requests,
                           const std::vector<Observed>& responses) {
  CheckResult result;
  auto fail = [&result](std::string msg) {
    // A broken run can fail every request; the first few say enough.
    if (result.errors.size() < 8) result.errors.push_back(std::move(msg));
  };
  std::vector<int> seen(static_cast<size_t>(std::max<int64_t>(num_requests, 0)),
                        0);
  for (const Observed& r : responses) {
    if (r.id == 0 || r.id > seen.size()) {
      fail("response with unknown id " + std::to_string(r.id));
      continue;
    }
    if (++seen[r.id - 1] == 2) {
      fail("duplicate response for id " + std::to_string(r.id));
    }
    if (r.code == 0 &&
        !(std::isfinite(r.minutes) && r.minutes > 0 && r.minutes < 1440)) {
      fail("id " + std::to_string(r.id) + " answered " +
           std::to_string(r.minutes) + " minutes, outside (0, 1440)");
    }
  }
  int64_t missing = std::count(seen.begin(), seen.end(), 0);
  if (missing > 0) {
    fail(std::to_string(missing) + " of " + std::to_string(num_requests) +
         " requests got no response");
  }
  return result;
}

Accuracy ScoreAccuracy(const std::vector<Request>& list,
                       const std::vector<Observed>& responses,
                       double prior_mean_minutes) {
  struct PerQuery {
    double err = 0;
    int64_t answers = 0;
    double truth = 0;
  };
  std::map<int64_t, PerQuery> by_query;
  for (const Observed& r : responses) {
    if (r.code != 0 || r.id == 0 || r.id > list.size()) continue;
    const Request& req = list[r.id - 1];
    PerQuery& q = by_query[req.query];
    q.err += std::fabs(r.minutes - req.truth_minutes);
    q.truth = req.truth_minutes;
    ++q.answers;
  }
  Accuracy acc;
  for (const auto& [query, q] : by_query) {
    acc.mae_min += q.err / static_cast<double>(q.answers);
    acc.prior_mae_min += std::fabs(prior_mean_minutes - q.truth);
  }
  acc.queries = static_cast<int64_t>(by_query.size());
  if (acc.queries > 0) {
    acc.mae_min /= static_cast<double>(acc.queries);
    acc.prior_mae_min /= static_cast<double>(acc.queries);
  }
  return acc;
}

}  // namespace perfbench
