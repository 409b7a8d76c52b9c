#include "cache/buffer_pool.h"

#include <algorithm>

namespace damkit::cache {

BufferPool::BufferPool(uint64_t capacity_bytes, WritebackFn writeback)
    : capacity_bytes_(capacity_bytes), writeback_(std::move(writeback)) {
  DAMKIT_CHECK(capacity_bytes_ > 0);
  DAMKIT_CHECK(writeback_ != nullptr);
}

BufferPool::~BufferPool() {
  // Owners are expected to flush before teardown; losing dirty state here
  // would silently skip simulated write IO, so surface it loudly.
  for (const Entry& e : lru_) {
    DAMKIT_CHECK_MSG(!e.dirty,
                     "BufferPool destroyed with dirty entry id=" << e.id
                         << "; call flush_all() first");
  }
}

std::shared_ptr<void> BufferPool::get_erased(uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
  return it->second->object;
}

void BufferPool::put(uint64_t id, std::shared_ptr<void> object,
                     uint64_t charged_bytes, bool dirty) {
  DAMKIT_CHECK(object != nullptr);
  DAMKIT_CHECK_MSG(index_.find(id) == index_.end(),
                   "put of already-resident id " << id);
  make_room(charged_bytes);
  // If we are still over budget, make_room evicted everything unpinned and
  // the residue is all pinned. The incoming entry may push past M
  // transiently (a descent pins the parent while loading a child), but a
  // *resident* pinned set that alone exceeds M is a caller leak that would
  // silently invalidate every experiment run against this pool — abort.
  // Entries kept resident only because their writeback failed are not
  // caller leaks and are excluded from the abort condition.
  if (charged_bytes_ + charged_bytes > capacity_bytes_) {
    DAMKIT_CHECK_MSG(
        charged_bytes_ - writeback_deferred_bytes_ <= capacity_bytes_,
        "BufferPool pinned set exceeds capacity: pinned="
            << charged_bytes_ << " > capacity=" << capacity_bytes_
            << " (callers hold too many references; incoming id=" << id
            << " bytes=" << charged_bytes << ")");
  }
  lru_.push_front(Entry{id, std::move(object), charged_bytes, dirty});
  index_[id] = lru_.begin();
  charged_bytes_ += charged_bytes;
  if (charged_bytes_ > stats_.charged_bytes_hwm) {
    stats_.charged_bytes_hwm = charged_bytes_;
  }
  ++stats_.inserted;
}

void BufferPool::mark_dirty(uint64_t id) {
  const auto it = index_.find(id);
  DAMKIT_CHECK_MSG(it != index_.end(), "mark_dirty of absent id " << id);
  it->second->dirty = true;
}

bool BufferPool::is_dirty(uint64_t id) const {
  const auto it = index_.find(id);
  return it != index_.end() && it->second->dirty;
}

void BufferPool::erase(uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  Entry& e = *it->second;
  charged_bytes_ -= e.bytes;
  lru_.erase(it->second);
  index_.erase(it);
}

Status BufferPool::writeback(Entry& e) {
  if (!e.dirty) return Status();
  const Status s = writeback_(e.id, e.object.get());
  if (!s.ok()) {
    ++stats_.writeback_failures;
    return s;
  }
  e.dirty = false;
  ++stats_.dirty_writebacks;
  return Status();
}

Status BufferPool::flush_all() {
  if (batch_writeback_ != nullptr) {
    // Gather every dirty entry (MRU→LRU, a stable order) and hand them to
    // the owner as one batch; the owner issues a single vectored write and
    // reports which entries landed.
    std::vector<std::pair<uint64_t, void*>> dirty;
    std::vector<LruList::iterator> dirty_its;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->dirty) {
        dirty.emplace_back(it->id, it->object.get());
        dirty_its.push_back(it);
      }
    }
    if (dirty.empty()) return Status();
    std::vector<bool> written(dirty.size(), false);
    const Status s = batch_writeback_(dirty, &written);
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (written[i]) {
        dirty_its[i]->dirty = false;
        ++stats_.dirty_writebacks;
      } else {
        ++stats_.writeback_failures;
      }
    }
    DAMKIT_CHECK_MSG(s.ok() || !std::all_of(written.begin(), written.end(),
                                            [](bool w) { return w; }),
                     "batch writeback reported failure but marked every "
                     "entry written");
    return s;
  }
  // Per-entry path: keep going after a failure so one bad extent does not
  // block the rest of the checkpoint; report the first failure.
  Status first_failure;
  for (Entry& e : lru_) {
    const Status s = writeback(e);
    if (!s.ok() && first_failure.ok()) first_failure = s;
  }
  return first_failure;
}

uint64_t BufferPool::pinned_bytes() const {
  uint64_t total = 0;
  for (const Entry& e : lru_) {
    if (pinned(e)) total += e.bytes;
  }
  return total;
}

Status BufferPool::clear() {
  DAMKIT_RETURN_IF_ERROR(flush_all());
  for (const Entry& e : lru_) {
    DAMKIT_CHECK_MSG(!pinned(e), "clear() with pinned entry id=" << e.id);
  }
  lru_.clear();
  index_.clear();
  charged_bytes_ = 0;
  writeback_deferred_bytes_ = 0;
  return Status();
}

void BufferPool::discard_all() {
  for (const Entry& e : lru_) {
    DAMKIT_CHECK_MSG(!pinned(e), "discard_all() with pinned entry id=" << e.id);
  }
  lru_.clear();
  index_.clear();
  charged_bytes_ = 0;
  writeback_deferred_bytes_ = 0;
}

void BufferPool::make_room(uint64_t incoming_bytes) {
  writeback_deferred_bytes_ = 0;
  if (charged_bytes_ + incoming_bytes <= capacity_bytes_) return;
  // Walk from the cold end, skipping pinned entries. If everything is
  // pinned the pool runs over budget — by design it never deadlocks; the
  // trees pin only O(height) nodes at a time.
  auto it = lru_.end();
  uint64_t pinned_seen = 0;  // opportunistic pinned high-water sample
  while (charged_bytes_ + incoming_bytes > capacity_bytes_ &&
         it != lru_.begin()) {
    --it;
    if (pinned(*it)) {
      pinned_seen += it->bytes;
      continue;
    }
    if (!writeback(*it).ok()) {
      // The pool copy is now the only good one: keep the entry dirty and
      // resident, try the next victim. A later eviction or flush retries.
      writeback_deferred_bytes_ += it->bytes;
      continue;
    }
    charged_bytes_ -= it->bytes;
    index_.erase(it->id);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
  if (pinned_seen > stats_.pinned_bytes_hwm) {
    stats_.pinned_bytes_hwm = pinned_seen;
  }
}

void BufferPool::export_metrics(stats::MetricsRegistry& reg,
                                std::string_view prefix) const {
  const BufferPoolStats& st = stats();  // refreshes the pinned snapshot
  const std::string p(prefix);
  reg.add(p + "hits", st.hits);
  reg.add(p + "misses", st.misses);
  reg.add(p + "evictions", st.evictions);
  reg.add(p + "dirty_writebacks", st.dirty_writebacks);
  reg.add(p + "writeback_failures", st.writeback_failures);
  reg.add(p + "inserted", st.inserted);
  reg.set(p + "hit_rate", st.hit_rate());
  reg.set(p + "capacity_bytes", static_cast<double>(capacity_bytes_));
  reg.set(p + "charged_bytes", static_cast<double>(charged_bytes_));
  reg.set(p + "charged_bytes_hwm", static_cast<double>(st.charged_bytes_hwm));
  reg.set(p + "pinned_bytes", static_cast<double>(st.pinned_bytes));
  reg.set(p + "pinned_bytes_hwm", static_cast<double>(st.pinned_bytes_hwm));
}

}  // namespace damkit::cache
