#include "nvmeof/qpair.h"

#include <algorithm>
#include <functional>

#include "util/check.h"
#include "util/hotpath.h"

namespace ecf::nvmeof {

QueuePair::QueuePair(int id, int depth) : id_(id), depth_(depth) {
  ECF_CHECK_GE(depth, 1) << " qpair depth";
  // Buckets 0..depth inclusive; the last counts submissions at full depth.
  depth_hist_.assign(static_cast<std::size_t>(depth) + 1, 0);
}

int QueuePair::in_flight(sim::SimTime now) const {
  ECF_CHECK_GE(now, last_now_) << " qpair time went backwards";
  return static_cast<int>(std::count_if(
      busy_.begin(), busy_.end(), [now](sim::SimTime t) { return t > now; }));
}

QueuePair::Slot QueuePair::submit(sim::SimTime now, bool enforce) {
  ECF_CHECK_GE(now, last_now_) << " qpair time went backwards";
  last_now_ = now;
  pending_ = true;
  while (!busy_.empty() && busy_.front() <= now) {
    std::pop_heap(busy_.begin(), busy_.end(), std::greater<>());
    busy_.pop_back();
  }
  ++submitted_;
  ++depth_hist_[busy_.size()];
  Slot out;
  out.depth_at_submit = static_cast<int>(busy_.size());
  out.start = enforce && out.depth_at_submit == depth_ ? busy_.front() : now;
  queued_seconds_ += out.start - now;
  return out;
}

void QueuePair::commit(const Slot& /*slot*/, sim::SimTime complete) {
  ECF_CHECK(pending_) << " qpair commit without a pending submit";
  pending_ = false;
  if (static_cast<int>(busy_.size()) == depth_) {
    // Full depth: the command took the slot the earliest completion frees.
    std::pop_heap(busy_.begin(), busy_.end(), std::greater<>());
    busy_.back() = std::max(busy_.back(), complete);
  } else {
    busy_.push_back(complete);  ECF_ALLOC_OK("amortized: grows to the qpair's in-flight high-water, <= depth");
  }
  std::push_heap(busy_.begin(), busy_.end(), std::greater<>());
}

}  // namespace ecf::nvmeof
