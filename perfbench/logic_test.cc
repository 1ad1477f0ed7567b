// Tests of the benchmark's own logic: percentile and share arithmetic,
// seeded request lists, and the output check.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "logic.h"
#include "serve/demo.h"

namespace perfbench {
namespace {

TEST(Arithmetic, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2, 10}), 2.5);
}

TEST(Arithmetic, ShareGuardsAnEmptyBase) {
  EXPECT_DOUBLE_EQ(Share(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(Share(3, 0), 0);
  EXPECT_DOUBLE_EQ(Share(3, -1), 0);
}

TEST(Arithmetic, SegmentsCoverEveryItemOnce) {
  EXPECT_EQ(SegmentEnd(10, 1, 0), 10);
  std::vector<int64_t> sizes;
  int64_t begin = 0;
  for (int64_t s = 0; s < 4; ++s) {
    sizes.push_back(SegmentEnd(10, 4, s) - begin);
    begin = SegmentEnd(10, 4, s);
  }
  EXPECT_EQ(begin, 10);
  EXPECT_EQ(*std::min_element(sizes.begin(), sizes.end()), 2);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 3);
}

class RequestLists : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_ = new dot::City(dot::serve::DemoCityConfig(),
                          dot::serve::kDemoCitySeed);
    dot::BenchmarkDataset ds = dot::BuildDataset(
        *city_, dot::serve::DemoTripConfig(), 1, "logic-test");
    grid_ = new dot::Grid(ds.MakeGrid(8).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete grid_;
    delete city_;
  }
  static std::vector<Request> Pool(uint64_t seed) {
    return SimulatedPool(*city_, dot::serve::DemoTripConfig(), 120, seed,
                         *grid_, 48);
  }
  static dot::City* city_;
  static dot::Grid* grid_;
};
dot::City* RequestLists::city_ = nullptr;
dot::Grid* RequestLists::grid_ = nullptr;

TEST_F(RequestLists, SameSeedSameListOtherSeedOtherList) {
  std::vector<Request> a = Pool(5), b = Pool(5), c = Pool(6);
  ASSERT_GT(a.size(), 50u);
  EXPECT_EQ(HashRequests(a), HashRequests(b));
  EXPECT_NE(HashRequests(a), HashRequests(c));
  EXPECT_EQ(HashRequests(ZipfList(a, 500, 1.0, 9)),
            HashRequests(ZipfList(b, 500, 1.0, 9)));
  EXPECT_NE(HashRequests(ZipfList(a, 500, 1.0, 9)),
            HashRequests(ZipfList(a, 500, 1.0, 10)));
  EXPECT_EQ(HashRequests(HotList(a, 16, 300, 3)),
            HashRequests(HotList(b, 16, 300, 3)));
  EXPECT_NE(HashRequests(HotList(a, 16, 300, 3)),
            HashRequests(HotList(a, 16, 300, 4)));
  EXPECT_EQ(HashRequests(ColdList(a, 40, 3)), HashRequests(ColdList(b, 40, 3)));
  EXPECT_NE(HashRequests(ColdList(a, 40, 3)), HashRequests(ColdList(a, 40, 4)));
}

TEST_F(RequestLists, ListsHaveTheirShape) {
  std::vector<Request> pool = Pool(5);
  std::vector<Request> hot = HotList(pool, 16, 1000, 1);
  EXPECT_EQ(hot.size(), 1000u);
  EXPECT_LE(DistinctBuckets(hot), 16);

  std::vector<Request> cold = ColdList(pool, 40, 1);
  EXPECT_EQ(cold.size(), 40u);
  EXPECT_EQ(DistinctBuckets(cold), 40);

  // Zipf(1): the most popular entry takes roughly 1/H(n) of the draws,
  // far more than a uniform draw would give it.
  std::vector<Request> zipf = ZipfList(pool, 20000, 1.0, 1);
  std::map<int64_t, int64_t> counts;
  for (const Request& r : zipf) ++counts[r.bucket];
  int64_t top = 0;
  for (const auto& [bucket, count] : counts) top = std::max(top, count);
  EXPECT_GT(top, 20000 / 10);
  EXPECT_GT(DistinctBuckets(zipf), 40);
}

TEST_F(RequestLists, BucketKeySeparatesTimeOfDaySlots) {
  std::vector<Request> pool = Pool(5);
  dot::OdtInput odt = pool.front().odt;
  dot::OdtInput later = odt;
  later.departure_time += 1800;  // next 30-minute slot
  EXPECT_NE(BucketKey(*grid_, odt, 48), BucketKey(*grid_, later, 48));
  EXPECT_EQ(BucketKey(*grid_, odt, 48), pool.front().bucket);
}

std::vector<Observed> AllAnswered(int64_t n) {
  std::vector<Observed> out;
  for (int64_t i = 1; i <= n; ++i) {
    out.push_back({static_cast<uint64_t>(i), 0, 0, 12.5, 1.0});
  }
  return out;
}

TEST(OutputCheck, AcceptsOneFiniteAnswerPerRequest) {
  EXPECT_TRUE(CheckResponses(5, AllAnswered(5)).ok());
}

TEST(OutputCheck, RejectsADroppedResponse) {
  std::vector<Observed> r = AllAnswered(5);
  r.erase(r.begin() + 2);
  EXPECT_FALSE(CheckResponses(5, r).ok());
}

TEST(OutputCheck, RejectsADuplicatedResponse) {
  std::vector<Observed> r = AllAnswered(5);
  r.push_back(r[1]);
  EXPECT_FALSE(CheckResponses(5, r).ok());
}

TEST(OutputCheck, RejectsAnUnknownId) {
  std::vector<Observed> r = AllAnswered(5);
  r.back().id = 6;
  EXPECT_FALSE(CheckResponses(5, r).ok());
}

TEST(OutputCheck, RejectsNonFiniteOrImplausibleMinutes) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 0.0, -3.0,
                     1440.0}) {
    std::vector<Observed> r = AllAnswered(5);
    r[3].minutes = bad;
    EXPECT_FALSE(CheckResponses(5, r).ok()) << bad;
  }
}

TEST(OutputCheck, ErrorAnswersAreNotCheckedForMinutes) {
  std::vector<Observed> r = AllAnswered(5);
  r[0].code = 8;  // refused: counts against ok_share, not the check
  r[0].minutes = 0;
  EXPECT_TRUE(CheckResponses(5, r).ok());
}

TEST(Accuracy, ScoresOkAnswersAgainstTruthAndPrior) {
  std::vector<Request> list(3);
  list[0].truth_minutes = 10;
  list[1].truth_minutes = 20;
  list[2].truth_minutes = 30;
  std::vector<Observed> r = {
      {1, 0, 0, 12, 0}, {2, 0, 0, 18, 0}, {3, 8, 0, 0, 0}};
  for (int64_t i = 0; i < 3; ++i) list[i].query = i;
  Accuracy a = ScoreAccuracy(list, r, 15);
  EXPECT_EQ(a.queries, 2);
  EXPECT_DOUBLE_EQ(a.mae_min, 2);
  EXPECT_DOUBLE_EQ(a.prior_mae_min, 5);
}

TEST(Accuracy, EachDistinctQueryCountsOnce) {
  // Query 7 is asked three times (errors 1, 1, 4: mean 2), query 9 once
  // (error 6): the MAE is (2 + 6) / 2, not (1 + 1 + 4 + 6) / 4.
  std::vector<Request> list(4);
  for (Request& q : list) {
    q.query = 7;
    q.truth_minutes = 10;
  }
  list[3].query = 9;
  list[3].truth_minutes = 20;
  std::vector<Observed> r = {
      {1, 0, 0, 11, 0}, {2, 0, 0, 9, 0}, {3, 0, 0, 14, 0}, {4, 0, 0, 14, 0}};
  Accuracy a = ScoreAccuracy(list, r, 12);
  EXPECT_EQ(a.queries, 2);
  EXPECT_DOUBLE_EQ(a.mae_min, 4);
  EXPECT_DOUBLE_EQ(a.prior_mae_min, (2 + 8) / 2.0);
}

}  // namespace
}  // namespace perfbench
