#include "nvmeof/qpair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace ecf::nvmeof {
namespace {

// The slot array QueuePair used to be, kept as the reference model: one
// completion time per slot, two linear scans per submit, and a command
// takes the lowest-index slot among the earliest-freeing ones.
class LinearScanQueuePair {
 public:
  struct Slot {
    std::size_t index = 0;
    sim::SimTime start = 0;
    int depth_at_submit = 0;
  };

  explicit LinearScanQueuePair(int depth)
      : slot_free_(static_cast<std::size_t>(depth), 0.0),
        depth_hist_(static_cast<std::size_t>(depth) + 1, 0) {}

  int in_flight(sim::SimTime now) const {
    int n = 0;
    for (const sim::SimTime t : slot_free_) {
      if (t > now) ++n;
    }
    return n;
  }

  Slot submit(sim::SimTime now, bool enforce) {
    ++submitted_;
    Slot out;
    out.depth_at_submit = in_flight(now);
    const std::size_t bucket =
        std::min(static_cast<std::size_t>(out.depth_at_submit),
                 depth_hist_.size() - 1);
    ++depth_hist_[bucket];
    const auto it = std::min_element(slot_free_.begin(), slot_free_.end());
    out.index = static_cast<std::size_t>(it - slot_free_.begin());
    out.start = enforce ? std::max(now, *it) : now;
    queued_seconds_ += out.start - now;
    return out;
  }

  void commit(const Slot& slot, sim::SimTime complete) {
    slot_free_[slot.index] = std::max(slot_free_[slot.index], complete);
  }

  std::uint64_t submitted() const { return submitted_; }
  double queued_seconds() const { return queued_seconds_; }
  const std::vector<std::uint64_t>& depth_histogram() const {
    return depth_hist_;
  }

 private:
  std::vector<sim::SimTime> slot_free_;
  std::vector<std::uint64_t> depth_hist_;
  std::uint64_t submitted_ = 0;
  double queued_seconds_ = 0;
};

TEST(QueuePair, RejectsBadDepth) {
  EXPECT_THROW(QueuePair(1, 0), std::logic_error);
  EXPECT_THROW(QueuePair(1, -3), std::logic_error);
}

TEST(QueuePair, UnenforcedSubmitStartsImmediately) {
  QueuePair q(1, 2);
  const auto a = q.submit(1.0, /*enforce=*/false);
  q.commit(a, 5.0);
  const auto b = q.submit(1.0, false);
  q.commit(b, 5.0);
  // Third command exceeds depth 2, but without enforcement it still
  // starts at `now` — the bound is accounting-only.
  const auto c = q.submit(1.0, false);
  EXPECT_DOUBLE_EQ(c.start, 1.0);
  EXPECT_DOUBLE_EQ(q.queued_seconds(), 0.0);
}

TEST(QueuePair, EnforcedSubmitWaitsForFreeSlot) {
  QueuePair q(1, 2);
  const auto a = q.submit(0.0, true);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  q.commit(a, 10.0);
  const auto b = q.submit(0.0, true);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
  q.commit(b, 4.0);
  // Both slots busy; the next command must wait for the earliest
  // completion (t=4, slot freed by b).
  const auto c = q.submit(1.0, true);
  EXPECT_DOUBLE_EQ(c.start, 4.0);
  EXPECT_EQ(c.depth_at_submit, 2);
  EXPECT_DOUBLE_EQ(q.queued_seconds(), 3.0);
  q.commit(c, 6.0);
  // After c's slot is taken, earliest free time is min(10, next-free).
  const auto d = q.submit(5.0, true);
  EXPECT_DOUBLE_EQ(d.start, 6.0);
}

TEST(QueuePair, InFlightAndHistogramTrackOutstanding) {
  QueuePair q(1, 4);
  const auto a = q.submit(0.0, true);
  q.commit(a, 2.0);
  const auto b = q.submit(0.0, true);
  q.commit(b, 3.0);
  EXPECT_EQ(q.in_flight(1.0), 2);
  EXPECT_EQ(q.in_flight(2.5), 1);
  EXPECT_EQ(q.in_flight(3.5), 0);
  // Histogram: first submit saw 0 outstanding, second saw 1.
  const auto& h = q.depth_histogram();
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(q.submitted(), 2u);
}

TEST(QueuePair, HistogramSaturatesAtDepthBucket) {
  QueuePair q(1, 2);
  for (int i = 0; i < 5; ++i) {
    const auto s = q.submit(0.0, /*enforce=*/false);
    q.commit(s, 100.0);  // all outstanding forever
  }
  const auto& h = q.depth_histogram();
  ASSERT_EQ(h.size(), 3u);  // buckets 0..depth
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 3u);  // 2, 3, 4 outstanding all land in the last bucket
}

TEST(QueuePair, EqualCompletionTiesMatchReference) {
  // Three commands at t=0 fill a depth-3 qpair and all complete together,
  // as do the three that wait for them: at each full-depth submit the
  // earliest completion is a three-way tie. Which slot wins the tie must
  // not show in any output.
  QueuePair q(1, 3);
  LinearScanQueuePair ref(3);
  std::vector<sim::SimTime> starts;
  for (int i = 0; i < 9; ++i) {
    const auto got = q.submit(0.0, /*enforce=*/true);
    const auto want = ref.submit(0.0, true);
    EXPECT_EQ(got.start, want.start) << "command " << i;
    EXPECT_EQ(got.depth_at_submit, want.depth_at_submit) << "command " << i;
    starts.push_back(got.start);
    q.commit(got, got.start + 1.0);
    ref.commit(want, want.start + 1.0);
  }
  EXPECT_EQ(starts, (std::vector<sim::SimTime>{0, 0, 0, 1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(q.depth_histogram(), ref.depth_histogram());
  EXPECT_EQ(q.depth_histogram(), (std::vector<std::uint64_t>{1, 1, 1, 6}));
  EXPECT_EQ(q.queued_seconds(), ref.queued_seconds());
}

TEST(QueuePair, RejectsBackwardsTime) {
  QueuePair q(1, 2);
  q.commit(q.submit(5.0, true), 6.0);
  EXPECT_THROW(q.submit(4.0, true), std::logic_error);
  EXPECT_THROW((void)q.in_flight(4.0), std::logic_error);
  EXPECT_EQ(q.in_flight(5.0), 1);  // equal `now` is not backwards
}

TEST(QueuePair, RejectsCommitWithoutPendingSubmit) {
  QueuePair q(1, 2);
  EXPECT_THROW(q.commit(QueuePair::Slot{}, 1.0), std::logic_error);
  const auto a = q.submit(0.0, true);
  q.commit(a, 1.0);
  EXPECT_THROW(q.commit(a, 2.0), std::logic_error);  // committed already
  EXPECT_EQ(q.in_flight(0.0), 1);
}

// Compares every output of the two models at `now`.
::testing::AssertionResult SameState(const QueuePair& q,
                                     const LinearScanQueuePair& ref,
                                     sim::SimTime now) {
  if (q.submitted() != ref.submitted()) {
    return ::testing::AssertionFailure()
           << "submitted " << q.submitted() << " vs " << ref.submitted();
  }
  if (q.queued_seconds() != ref.queued_seconds()) {
    return ::testing::AssertionFailure() << "queued_seconds "
                                         << q.queued_seconds() << " vs "
                                         << ref.queued_seconds();
  }
  if (q.in_flight(now) != ref.in_flight(now)) {
    return ::testing::AssertionFailure()
           << "in_flight(" << now << ") " << q.in_flight(now) << " vs "
           << ref.in_flight(now);
  }
  if (q.depth_histogram() != ref.depth_histogram()) {
    return ::testing::AssertionFailure() << "depth histograms differ";
  }
  return ::testing::AssertionSuccess();
}

// Seeded random submit/commit sequences against the linear-scan model.
// Time steps and command lengths are mostly multiples of 0.25 s, so equal
// `now`s and equal completion times are common; off-grid draws mix in.
void RunDifferential(int depth, bool enforce, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "depth " << depth << " enforce "
                                    << enforce << " seed " << seed);
  QueuePair q(1, depth);
  LinearScanQueuePair ref(depth);
  util::Rng rng(seed);
  auto grid = [&rng](std::uint64_t n) { return 0.25 * rng.uniform(n); };
  sim::SimTime now = 0;
  int burst = 0;  // submits left at this `now`
  for (int op = 0; op < 5000; ++op) {
    if (burst > 0) {
      --burst;  // over-depth burst: every submit at one `now`
    } else if (rng.bernoulli(0.01)) {
      burst = depth + static_cast<int>(rng.uniform(4));
    } else if (rng.bernoulli(0.1)) {
      now += rng.uniform01();
    } else {
      now += grid(4);  // a quarter of the time `now` repeats
    }
    const auto got = q.submit(now, enforce);
    const auto want = ref.submit(now, enforce);
    ASSERT_EQ(got.start, want.start) << "op " << op;
    ASSERT_EQ(got.depth_at_submit, want.depth_at_submit) << "op " << op;
    ASSERT_TRUE(SameState(q, ref, now)) << "op " << op << " after submit";
    if (rng.bernoulli(0.02)) continue;  // abandoned: never committed

    sim::SimTime complete = got.start + grid(8);  // 1 in 8 zero-length
    switch (rng.uniform(8)) {
      case 0:  // off-grid
        complete = got.start + rng.uniform01();
        break;
      case 1:  // earlier than the replaced entry (at full depth, the start)
        complete = now + 0.5 * (got.start - now);
        break;
      case 2:  // zero-length at `now`, even when the start was pushed back
        complete = now;
        break;
      default:
        break;
    }
    q.commit(got, complete);
    ref.commit(want, complete);
    ASSERT_TRUE(SameState(q, ref, now)) << "op " << op << " after commit";
    if (rng.bernoulli(0.1)) {
      const sim::SimTime probe = now + grid(16);
      ASSERT_EQ(q.in_flight(probe), ref.in_flight(probe)) << "op " << op;
    }
  }
}

TEST(QueuePair, MatchesLinearScanReference) {
  for (const int depth : {1, 2, 4, 128}) {
    for (const bool enforce : {false, true}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        RunDifferential(depth, enforce, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace ecf::nvmeof
