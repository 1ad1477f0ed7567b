// Pure logic of the closed-loop serving benchmark, kept apart from the
// serving stack so it can be unit-tested: percentile and share arithmetic,
// the seeded request lists of the three workloads, and the output check
// that decides whether a run's answers are correct.

#ifndef DOT_PERFBENCH_LOGIC_H_
#define DOT_PERFBENCH_LOGIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/dataset.h"
#include "geo/grid.h"

namespace perfbench {

/// q-th percentile (q in [0, 100]) of `v`, linearly interpolated between
/// the two closest ranks of the sorted values. 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// part / whole, or 0 when `whole` is not positive.
double Share(double part, double whole);
/// One past the last item of segment `s` when `n` items are cut into
/// `segments` consecutive segments whose sizes differ by at most one.
int64_t SegmentEnd(int64_t n, int64_t segments, int64_t s);

/// \brief One query of a request list with its simulator ground truth.
struct Request {
  dot::OdtInput odt;
  double truth_minutes = 0;
  int64_t bucket = 0;  ///< (origin cell, destination cell, ToD slot) key
  int64_t query = 0;   ///< index of the simulated trip in its pool
};

/// The serving cache's bucket key of `odt`: origin cell, destination cell
/// and time-of-day slot on `grid`, combined exactly as OracleService does.
int64_t BucketKey(const dot::Grid& grid, const dot::OdtInput& odt,
                  int64_t tod_slots);

/// Ground-truth trips drawn from the simulator with `seed`: `n` generated
/// trips, kept only if they pass the dataset filter, each tagged with its
/// bucket on `grid` and its pool index.
std::vector<Request> SimulatedPool(const dot::City& city,
                                   const dot::TripConfig& trips, int64_t n,
                                   uint64_t seed, const dot::Grid& grid,
                                   int64_t tod_slots);

/// `n` requests drawn uniformly from a hot set of `hot` pool entries; the
/// seed picks the hot set and the draws.
std::vector<Request> HotList(const std::vector<Request>& pool, int64_t hot,
                             int64_t n, uint64_t seed);
/// `n` requests drawn Zipf(s) over the pool: the pool entry at popularity
/// rank r (a seeded permutation) is drawn with weight 1 / r^s.
std::vector<Request> ZipfList(const std::vector<Request>& pool, int64_t n,
                              double s, uint64_t seed);
/// The first `n` pool entries (in seeded order) whose buckets are pairwise
/// distinct, so no request can be a cache hit. Fewer than `n` when the pool
/// runs out of fresh buckets.
std::vector<Request> ColdList(const std::vector<Request>& pool, int64_t n,
                              uint64_t seed);

/// FNV-1a over every field a request list sends, printed beside each run
/// so two runs can be shown to have answered the same queries.
uint64_t HashRequests(const std::vector<Request>& list);
int64_t DistinctBuckets(const std::vector<Request>& list);
/// The first request of every distinct query, in list order.
std::vector<Request> FirstOccurrences(const std::vector<Request>& list);

/// \brief One response as the load generator observed it.
struct Observed {
  uint64_t id = 0;  ///< request index + 1
  uint8_t code = 0;
  uint8_t quality = 0;
  double minutes = 0;
  double latency_ms = 0;
};

/// \brief Verdict of the output check.
struct CheckResult {
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
};

/// Checks the responses to a list of `num_requests` requests: exactly one
/// response per request id, no unknown id, and every OK answer's minutes
/// finite and inside (0, 1440).
CheckResult CheckResponses(int64_t num_requests,
                           const std::vector<Observed>& responses);

/// \brief Accuracy of the OK answers against the ground truth. Every
/// distinct query counts once (a query answered several times contributes
/// the mean of its errors), so a few popular queries cannot dominate.
struct Accuracy {
  int64_t queries = 0;       ///< distinct queries with an OK answer
  double mae_min = 0;        ///< the served answers
  double prior_mae_min = 0;  ///< the constant prior-mean predictor
};
Accuracy ScoreAccuracy(const std::vector<Request>& list,
                       const std::vector<Observed>& responses,
                       double prior_mean_minutes);

}  // namespace perfbench

#endif  // DOT_PERFBENCH_LOGIC_H_
