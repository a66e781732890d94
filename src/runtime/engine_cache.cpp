#include "runtime/engine_cache.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/common.h"

namespace snappix::runtime {

// --- PatternNormalizer -------------------------------------------------------

PatternNormalizer::PatternNormalizer(const ce::CePattern& pattern) : tile_(pattern.tile()) {
  const auto counts = pattern.exposure_counts();
  inv_counts_.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    // Same reciprocal-then-multiply as ce::normalize_by_exposure, so apply()
    // is bit-identical to the library path.
    inv_counts_[i] = counts[i] > 0 ? 1.0F / static_cast<float>(counts[i]) : 0.0F;
  }
}

Tensor PatternNormalizer::apply(const Tensor& coded) const {
  SNAPPIX_CHECK(coded.ndim() == 3, "PatternNormalizer expects (B, H, W), got "
                                       << coded.shape().to_string());
  const std::int64_t batch = coded.shape()[0];
  const std::int64_t h = coded.shape()[1];
  const std::int64_t w = coded.shape()[2];
  SNAPPIX_CHECK(h % tile_ == 0 && w % tile_ == 0,
                "frame " << h << "x" << w << " not divisible by tile " << tile_);
  std::vector<float> out(coded.data().size());
  const auto& dc = coded.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = dc.data() + b * h * w;
    float* dst = out.data() + b * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      const float* irow = inv_counts_.data() + (y % tile_) * tile_;
      for (std::int64_t x = 0; x < w; ++x) {
        dst[y * w + x] = src[y * w + x] * irow[x % tile_];
      }
    }
  }
  return Tensor::from_vector(std::move(out), coded.shape());
}

// --- EngineCache -------------------------------------------------------------

EngineCache::EngineCache(const EngineCacheConfig& config, EngineFactory factory,
                         const CacheSeries& series)
    : config_(config), factory_(std::move(factory)), series_(series) {
  SNAPPIX_CHECK(config.shards > 0, "EngineCache needs at least one shard");
  SNAPPIX_CHECK(config.capacity_per_shard > 0, "EngineCache shard capacity must be positive");
  SNAPPIX_CHECK(factory_ != nullptr, "EngineCache needs an engine factory");
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::size_t tier = 0; tier < series_.size(); ++tier) {
    CacheTierSeries& s = series_[tier];
    s.hits = s.hits != nullptr ? s.hits : &own_[tier][0];
    s.misses = s.misses != nullptr ? s.misses : &own_[tier][1];
    s.evictions = s.evictions != nullptr ? s.evictions : &own_[tier][2];
  }
}

EngineCache::Shard& EngineCache::shard_for(std::uint64_t pattern_id) {
  // pattern_id is an FNV-1a hash, already well mixed — modulo suffices.
  return *shards_[pattern_id % shards_.size()];
}

std::shared_ptr<const ServingEntry> EngineCache::resolve(
    std::uint64_t pattern_id, const std::shared_ptr<const ce::CePattern>& pattern,
    Precision precision) {
  SNAPPIX_CHECK(pattern != nullptr, "resolve() needs the pattern to build on a miss");
  Shard& shard = shard_for(pattern_id);
  const CacheKey key{pattern_id, precision};
  const CacheTierSeries& counters = series_[static_cast<std::size_t>(precision)];

  // A hit is a map lookup; a miss builds (and for int8, calibrates) an
  // engine. The hit/miss arg on the span makes the difference visible in the
  // trace without a separate event type.
  obs::TraceLane* lane = obs::current_lane();
  obs::TraceRecorder* recorder = obs::current_recorder();
  const std::int64_t span_start = lane != nullptr ? recorder->now_ns() : 0;

  std::lock_guard<std::mutex> lock(shard.mutex);

  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    counters.hits->add();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
    if (lane != nullptr) {
      lane->add_complete("cache_resolve", span_start, recorder->now_ns() - span_start,
                         "\"hit\": true");
    }
    return it->second->second;
  }

  counters.misses->add();
  auto entry = std::make_shared<ServingEntry>();
  entry->pattern = pattern;
  entry->normalizer = std::make_unique<PatternNormalizer>(*pattern);
  entry->engine = factory_(*pattern, precision);
  entry->precision = precision;
  SNAPPIX_CHECK(entry->engine != nullptr, "engine factory returned null");
  SNAPPIX_CHECK(entry->engine->precision() == precision,
                "engine factory built a " << to_string(entry->engine->precision())
                                          << " engine for a " << to_string(precision)
                                          << " miss");

  shard.lru.emplace_front(key, entry);
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > config_.capacity_per_shard) {
    const CacheKey& victim = shard.lru.back().first;
    series_[static_cast<std::size_t>(victim.precision)].evictions->add();
    shard.index.erase(victim);
    shard.lru.pop_back();  // in-flight holders keep the entry alive
  }
  if (lane != nullptr) {
    lane->add_complete("cache_resolve", span_start, recorder->now_ns() - span_start,
                       "\"hit\": false");
  }
  return entry;
}

EngineCacheCounters EngineCache::counters() const {
  EngineCacheCounters total;
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const EngineCacheCounters tier = counters(precision);
    total.hits += tier.hits;
    total.misses += tier.misses;
    total.evictions += tier.evictions;
  }
  return total;
}

EngineCacheCounters EngineCache::counters(Precision precision) const {
  const CacheTierSeries& tier = series_[static_cast<std::size_t>(precision)];
  return EngineCacheCounters{tier.hits->value(), tier.misses->value(),
                             tier.evictions->value()};
}

std::size_t EngineCache::resident() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

std::size_t EngineCache::max_shard_occupancy() const {
  std::size_t max_occupancy = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    max_occupancy = std::max(max_occupancy, shard->lru.size());
  }
  return max_occupancy;
}

}  // namespace snappix::runtime
