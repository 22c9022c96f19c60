#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fsaic {
namespace {

struct Job {
  std::string key;
  std::size_t shard = 0;
  int priority = 0;
  double deadline_us = -1.0;  // absolute; < 0 = no deadline
  std::int64_t seq = 0;
};

struct JobTraits {
  static std::size_t shard(const Job& j) { return j.shard; }
  static int priority(const Job& j) { return j.priority; }
  static double deadline_us(const Job& j) { return j.deadline_us; }
  static std::int64_t seq(const Job& j) { return j.seq; }
};

using Sched = ShardedScheduler<Job, JobTraits>;

Job job(std::int64_t seq, std::size_t shard, int priority = 0,
        double deadline_us = -1.0) {
  // Appended rather than `"j" + std::to_string(seq)`, which GCC 12
  // misreports as an overlapping memcpy (-Wrestrict).
  std::string id = "j";
  id += std::to_string(seq);
  return Job{std::move(id), shard, priority, deadline_us, seq};
}

TEST(ShardedSchedulerTest, BoundsTotalCapacityAcrossLanes) {
  Sched q(2, 4);
  EXPECT_TRUE(q.try_push(job(1, 0)));
  EXPECT_TRUE(q.try_push(job(2, 3)));
  EXPECT_FALSE(q.try_push(job(3, 1)))
      << "the bound is on total items, not per lane";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.shards(), 4u);
}

TEST(ShardedSchedulerTest, OwnLaneBeforeStealing) {
  Sched q(8, 2);
  q.try_push(job(1, 0));  // other worker's lane, admitted earlier
  q.try_push(job(2, 1));  // this worker's lane
  const auto got = q.pop(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 2) << "a worker serves its own lane before stealing";
}

TEST(ShardedSchedulerTest, StealsGloballyBestWhenOwnLaneEmpty) {
  Sched q(8, 3);
  q.try_push(job(1, 0, /*priority=*/0));
  q.try_push(job(2, 1, /*priority=*/5));
  const auto got = q.pop(2);  // lane 2 is empty -> steal
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 2) << "stealing takes the highest-priority item";
}

TEST(ShardedSchedulerTest, PriorityOutranksAdmissionOrder) {
  Sched q(8, 1);
  q.try_push(job(1, 0, 0));
  q.try_push(job(2, 0, 2));
  q.try_push(job(3, 0, 1));
  EXPECT_EQ(q.pop(0)->seq, 2);
  EXPECT_EQ(q.pop(0)->seq, 3);
  EXPECT_EQ(q.pop(0)->seq, 1);
}

TEST(ShardedSchedulerTest, DeadlinedOutranksDeadlineFreeThenEdf) {
  Sched q(8, 1);
  q.try_push(job(1, 0, 0, /*deadline_us=*/-1.0));
  q.try_push(job(2, 0, 0, /*deadline_us=*/9000.0));
  q.try_push(job(3, 0, 0, /*deadline_us=*/4000.0));
  EXPECT_EQ(q.pop(0)->seq, 3) << "earliest absolute deadline first";
  EXPECT_EQ(q.pop(0)->seq, 2);
  EXPECT_EQ(q.pop(0)->seq, 1) << "deadline-free work runs last";
}

TEST(ShardedSchedulerTest, PriorityBeatsDeadline) {
  Sched q(8, 1);
  q.try_push(job(1, 0, /*priority=*/0, /*deadline_us=*/1000.0));
  q.try_push(job(2, 0, /*priority=*/1, /*deadline_us=*/-1.0));
  EXPECT_EQ(q.pop(0)->seq, 2)
      << "EDF only orders within one priority level";
}

TEST(ShardedSchedulerTest, EqualKeysFallBackToFifo) {
  Sched q(8, 1);
  q.try_push(job(1, 0, 1, 5000.0));
  q.try_push(job(2, 0, 1, 5000.0));
  EXPECT_EQ(q.pop(0)->seq, 1);
  EXPECT_EQ(q.pop(0)->seq, 2);
}

TEST(ShardedSchedulerTest, DrainIfCrossesLanesInAdmissionOrder) {
  Sched q(16, 3);
  q.try_push(job(1, 2, /*priority=*/0));
  q.try_push(job(2, 0, /*priority=*/9));
  q.try_push(job(3, 1, /*priority=*/0));
  q.try_push(job(4, 0, /*priority=*/0));
  Job other = job(5, 1);
  other.key = "other";
  q.try_push(other);

  const auto batch = q.drain_if([](const Job& j) { return j.key != "other"; });
  std::vector<std::int64_t> seqs;
  for (const Job& j : batch) seqs.push_back(j.seq);
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{1, 2, 3, 4}))
      << "batch composition is admission-ordered, not priority- or "
         "shard-ordered, so solves are shard-count independent";
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(0)->key, "other");
}

TEST(ShardedSchedulerTest, CloseDrainsThenReturnsEmpty) {
  Sched q(8, 2);
  q.try_push(job(1, 0));
  q.close();
  EXPECT_FALSE(q.try_push(job(2, 0))) << "closed scheduler rejects pushes";
  EXPECT_EQ(q.pop(0)->seq, 1) << "queued work still drains after close";
  EXPECT_EQ(q.pop(0), std::nullopt);
}

TEST(ShardedSchedulerTest, ShardIdsWrapAroundLaneCount) {
  Sched q(8, 2);
  q.try_push(job(1, 7));  // 7 % 2 == lane 1
  const auto got = q.pop(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1);
}

}  // namespace
}  // namespace fsaic
