#include "opt/session_cache.h"

namespace ideval {

SessionCache::SessionCache(Engine* engine, Options options)
    : engine_(engine), options_(options) {
  if (options_.capacity < 1) options_.capacity = 1;
}

Result<SessionCache::Execution> SessionCache::Execute(const Query& query) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("SessionCache has no engine");
  }
  const std::string key = QueryKey(query);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    Execution out;
    out.response = it->second.response;
    out.cache_hit = true;
    out.effective_time = options_.hit_cost;
    time_saved_ += it->second.response.ServerTime() - options_.hit_cost;
    return out;
  }
  ++misses_;
  IDEVAL_ASSIGN_OR_RETURN(QueryResponse response, engine_->Execute(query));
  if (static_cast<int64_t>(cache_.size()) >= options_.capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_[key] = Entry{response, lru_.begin()};
  Execution out;
  out.response = std::move(response);
  out.cache_hit = false;
  out.effective_time = out.response.ServerTime();
  return out;
}

void SessionCache::Clear() {
  cache_.clear();
  lru_.clear();
}

double SessionCache::HitRate() const {
  const int64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace ideval
