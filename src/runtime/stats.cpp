#include "runtime/stats.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "util/common.h"

namespace snappix::runtime {

namespace {

constexpr QosClass kQosClasses[] = {QosClass::kRealtime, QosClass::kStandard,
                                    QosClass::kBestEffort};
constexpr ShedReason kShedReasons[] = {ShedReason::kQueueFull, ShedReason::kDeadline};
constexpr FlushReason kFlushReasons[] = {FlushReason::kMaxBatch, FlushReason::kMaxLatency,
                                         FlushReason::kExhausted, FlushReason::kHoldback,
                                         FlushReason::kSteal};
constexpr Precision kPrecisions[] = {Precision::kFp32, Precision::kInt8};
// The framed outcomes, in TransportStatus order after kInMemory.
constexpr TransportStatus kOutcomes[] = {TransportStatus::kFramedOk, TransportStatus::kCrcError,
                                         TransportStatus::kTruncated,
                                         TransportStatus::kMissingLines};

std::size_t index_of(QosClass qos) { return static_cast<std::size_t>(qos); }
std::size_t index_of(ShedReason reason) { return static_cast<std::size_t>(reason); }

// `metric{labels}`: `labels` is a comma-joined list of key="value" pairs.
std::string series(const char* metric, const std::string& labels) {
  return std::string(metric) + "{" + labels + "}";
}

std::string label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + value + "\"";
}

// The value of label `key` in a registry name such as
// `snappix_batches_total{shard="1",reason="steal"}`; empty when absent.
std::string label_value(const std::string& name, const std::string& key) {
  const std::string needle = key + "=\"";
  for (std::size_t pos = name.find('{'); pos != std::string::npos;
       pos = name.find(',', pos + 1)) {
    if (name.compare(pos + 1, needle.size(), needle) == 0) {
      const std::size_t begin = pos + 1 + needle.size();
      return name.substr(begin, name.find('"', begin) - begin);
    }
  }
  return "";
}

StageSummary summarize(const obs::HistogramSnapshot& h) {
  StageSummary out;
  out.count = static_cast<std::size_t>(h.count);
  out.mean_ms = h.mean * 1e3;
  out.p50_ms = h.p50 * 1e3;
  out.p95_ms = h.p95 * 1e3;
  out.p99_ms = h.p99 * 1e3;
  return out;
}

std::uint64_t& flush_field(ShardStatsView& s, const std::string& reason) {
  std::uint64_t* fields[] = {&s.flush_max_batch, &s.flush_max_latency, &s.flush_exhausted,
                             &s.flush_holdback, &s.flush_steal};  // FlushReason order
  for (const FlushReason r : kFlushReasons) {
    if (reason == to_string(r)) {
      return *fields[static_cast<std::size_t>(r)];
    }
  }
  return s.flush_max_batch;
}

// Folds one {shard="i"} counter into its row.
void add_shard_counter(ShardStatsView& s, RuntimeSummary& out, const std::string& metric,
                       const std::string& name, std::uint64_t value) {
  const bool fp32 = label_value(name, "precision") == to_string(Precision::kFp32);
  EngineCacheCounters& tier = fp32 ? out.cache_fp32 : out.cache_int8;
  if (metric == "snappix_frames_total") {
    s.frames += value;
    (label_value(name, "task") == to_string(Task::kClassify) ? out.classify_frames
                                                             : out.reconstruct_frames) += value;
    (fp32 ? out.fp32_frames : out.int8_frames) += value;
  } else if (metric == "snappix_batches_total") {
    s.batches += value;
    flush_field(s, label_value(name, "reason")) += value;
  } else if (metric == "snappix_stolen_frames_total") {
    s.stolen_frames += value;
  } else if (metric == "snappix_steal_probes_total") {
    s.steal_attempts += value;
  } else if (metric == "snappix_cache_hits_total") {
    s.cache_hits += value;
    tier.hits += value;
  } else if (metric == "snappix_cache_misses_total") {
    s.cache_misses += value;
    tier.misses += value;
  } else if (metric == "snappix_cache_evictions_total") {
    s.cache_evictions += value;
    tier.evictions += value;
  } else if (metric == "snappix_watchdog_stalls_total") {
    out.watchdog_stalls += value;
  }
}

// The per-camera rows, keyed (and so sorted) by camera id.
struct CameraRows {
  std::map<int, ShedCounters> shed;
  std::map<int, TransportCounters> transport;
  std::map<int, HealthCounters> health;
};

// Folds one nonzero {camera="c"} counter into its rows and the fleet totals
// the rows do not carry (sheds by QoS class).
void add_camera_counter(CameraRows& rows, RuntimeSummary& out, int camera,
                        const std::string& metric, const std::string& name,
                        std::uint64_t value) {
  if (metric == "snappix_shed_frames_total") {
    const bool queue_full = label_value(name, "reason") == to_string(ShedReason::kQueueFull);
    (queue_full ? rows.shed[camera].queue_full : rows.shed[camera].deadline) += value;
    const std::string qos = label_value(name, "qos");
    (qos == to_string(QosClass::kRealtime)   ? out.shed_realtime
     : qos == to_string(QosClass::kStandard) ? out.shed_standard
                                             : out.shed_best_effort) += value;
  } else if (metric == "snappix_deadline_miss_total") {
    rows.shed[camera].deadline_misses += value;
  } else if (metric == "snappix_transport_frames_total") {
    TransportCounters& t = rows.transport[camera];
    const std::string outcome = label_value(name, "outcome");
    t.framed_frames += value;
    if (outcome == to_string(TransportStatus::kFramedOk)) {
      t.ok_frames += value;
    } else {
      t.dropped_frames += value;  // a corrupt final outcome is never served
      (outcome == to_string(TransportStatus::kCrcError)    ? t.crc_errors
       : outcome == to_string(TransportStatus::kTruncated) ? t.truncated
                                                           : t.missing_lines) += value;
    }
  } else if (metric == "snappix_retransmits_total") {
    rows.transport[camera].retransmits += value;
  } else if (metric == "snappix_codec_frames_total") {
    rows.transport[camera].codec_frames += value;
  } else if (metric == "snappix_codec_planes_decoded_total") {
    rows.transport[camera].codec_planes_decoded += value;
  } else if (metric == "snappix_codec_planes_total") {
    rows.transport[camera].codec_planes_total += value;
  } else if (metric == "snappix_health_transitions_total") {
    rows.health[camera].transitions += value;
  } else if (metric == "snappix_ladder_steps_total") {
    HealthCounters& h = rows.health[camera];
    (label_value(name, "direction") == "down" ? h.steps_down : h.steps_up) += value;
  } else if (metric == "snappix_quarantine_drops_total") {
    rows.health[camera].quarantine_drops += value;
  }
}

}  // namespace

// One camera's hot-path series, resolved when the camera's first event is
// recorded. Cold series (health transitions, ladder steps) are resolved by
// name per event instead.
struct RuntimeStats::CameraSeries {
  CameraSeries(obs::MetricsRegistry& registry, int camera_id) : id(camera_id) {
    const std::string camera = label("camera", std::to_string(camera_id));
    for (const QosClass qos : kQosClasses) {
      for (const ShedReason reason : kShedReasons) {
        shed[index_of(qos)][index_of(reason)] = &registry.counter(
            series("snappix_shed_frames_total", camera + "," + label("qos", to_string(qos)) +
                                                    "," + label("reason", to_string(reason))));
      }
    }
    deadline_misses = &registry.counter(series("snappix_deadline_miss_total", camera));
    for (std::size_t i = 0; i < outcome.size(); ++i) {
      outcome[i] = &registry.counter(series(
          "snappix_transport_frames_total",
          camera + "," + label("outcome", to_string(kOutcomes[i]))));
    }
    retransmits = &registry.counter(series("snappix_retransmits_total", camera));
    codec_frames = &registry.counter(series("snappix_codec_frames_total", camera));
    planes_decoded = &registry.counter(series("snappix_codec_planes_decoded_total", camera));
    planes_total = &registry.counter(series("snappix_codec_planes_total", camera));
    quarantine_drops = &registry.counter(series("snappix_quarantine_drops_total", camera));
  }

  int id;
  obs::Counter* shed[3][2] = {};                // [QosClass][ShedReason]
  obs::Counter* deadline_misses = nullptr;
  std::array<obs::Counter*, 4> outcome{};       // by kOutcomes
  obs::Counter* retransmits = nullptr;
  obs::Counter* codec_frames = nullptr;
  obs::Counter* planes_decoded = nullptr;
  obs::Counter* planes_total = nullptr;
  obs::Counter* quarantine_drops = nullptr;
  CameraSeries* next = nullptr;  // bucket chain; immutable once published
};

RuntimeStats::RuntimeStats()
    : capture_(registry_.histogram("snappix_capture_seconds")),
      queue_wait_(registry_.histogram("snappix_queue_wait_seconds")),
      inference_(registry_.histogram("snappix_inference_seconds")),
      end_to_end_(registry_.histogram("snappix_e2e_seconds")),
      raw_bytes_(registry_.counter("snappix_raw_bytes_total")),
      wire_bytes_(registry_.counter("snappix_wire_bytes_total")),
      rerouted_frames_(registry_.counter("snappix_watchdog_rerouted_frames_total")) {
  for (const QosClass qos : kQosClasses) {
    e2e_qos_[index_of(qos)] =
        &registry_.histogram(series("snappix_e2e_seconds", label("qos", to_string(qos))));
  }
}

RuntimeStats::~RuntimeStats() {
  for (auto& bucket : cameras_) {
    // Each node was released from a unique_ptr in camera(); take it back.
    for (CameraSeries* node = bucket.load(std::memory_order_acquire); node != nullptr;) {
      const std::unique_ptr<CameraSeries> owned(node);
      node = node->next;
    }
  }
}

RuntimeStats::CameraSeries& RuntimeStats::camera(int camera_id) {
  auto& bucket = cameras_[static_cast<unsigned>(camera_id) % kCameraBuckets];
  CameraSeries* head = bucket.load(std::memory_order_acquire);
  for (;;) {
    for (CameraSeries* node = head; node != nullptr; node = node->next) {
      if (node->id == camera_id) {
        return *node;
      }
    }
    // First event of this camera: resolve its series (cold, once). A racing
    // first event may win the CAS; the loser re-walks the new chain and
    // finds the winner's node (the registry handed both the same counters).
    auto fresh = std::make_unique<CameraSeries>(registry_, camera_id);
    fresh->next = head;
    if (bucket.compare_exchange_strong(head, fresh.get(), std::memory_order_release,
                                       std::memory_order_acquire)) {
      return *fresh.release();
    }
  }
}

ShardSeries RuntimeStats::shard(std::size_t index) {
  const std::string shard = label("shard", std::to_string(index));
  ShardSeries out;
  for (const Task task : {Task::kClassify, Task::kReconstruct}) {
    for (const Precision precision : kPrecisions) {
      out.frames[static_cast<std::size_t>(task)][static_cast<std::size_t>(precision)] =
          &registry_.counter(series("snappix_frames_total",
                                    shard + "," + label("task", to_string(task)) + "," +
                                        label("precision", to_string(precision))));
    }
  }
  for (const FlushReason reason : kFlushReasons) {
    out.batches[static_cast<std::size_t>(reason)] = &registry_.counter(
        series("snappix_batches_total", shard + "," + label("reason", to_string(reason))));
  }
  out.stolen_frames = &registry_.counter(series("snappix_stolen_frames_total", shard));
  out.steal_probes = &registry_.counter(series("snappix_steal_probes_total", shard));
  out.queue_high_water = &registry_.gauge(series("snappix_queue_high_water", shard));
  for (const Precision precision : kPrecisions) {
    const std::string labels = shard + "," + label("precision", to_string(precision));
    out.cache[static_cast<std::size_t>(precision)] = CacheTierSeries{
        &registry_.counter(series("snappix_cache_hits_total", labels)),
        &registry_.counter(series("snappix_cache_misses_total", labels)),
        &registry_.counter(series("snappix_cache_evictions_total", labels))};
  }
  return out;
}

void RuntimeStats::record_capture(double seconds) { capture_.observe(seconds); }

void RuntimeStats::record_queue_wait(double seconds) { queue_wait_.observe(seconds); }

void RuntimeStats::record_batch(const ShardSeries& shard, std::size_t batch_size,
                                double inference_seconds, FlushReason reason, Task task,
                                Precision precision) {
  shard.frames[static_cast<std::size_t>(task)][static_cast<std::size_t>(precision)]->add(
      batch_size);
  shard.batches[static_cast<std::size_t>(reason)]->add();
  if (reason == FlushReason::kSteal) {
    shard.stolen_frames->add(batch_size);
  }
  inference_.observe(inference_seconds);
}

void RuntimeStats::record_transport(int camera_id, TransportStatus status, int retransmits,
                                    bool codec, int decoded_planes, int total_planes) {
  SNAPPIX_CHECK(status != TransportStatus::kInMemory,
                "record_transport takes framed outcomes only");
  CameraSeries& c = camera(camera_id);
  c.outcome[static_cast<std::size_t>(status) - 1]->add();
  c.retransmits->add(static_cast<std::uint64_t>(retransmits));
  if (codec) {
    c.codec_frames->add();
    c.planes_decoded->add(static_cast<std::uint64_t>(decoded_planes));
    c.planes_total->add(static_cast<std::uint64_t>(total_planes));
  }
}

void RuntimeStats::record_shed(int camera_id, QosClass qos, ShedReason reason) {
  camera(camera_id).shed[index_of(qos)][index_of(reason)]->add();
}

void RuntimeStats::record_deadline_miss(int camera_id) {
  camera(camera_id).deadline_misses->add();
}

void RuntimeStats::record_health_transition(int camera_id, HealthState from,
                                            HealthState to) {
  const std::string camera = label("camera", std::to_string(camera_id));
  registry_
      .counter(series("snappix_health_transitions_total",
                      camera + "," + label("from", to_string(from)) + "," +
                          label("to", to_string(to))))
      .add();
  registry_.gauge(series("snappix_camera_health", camera)).set(static_cast<double>(to));
}

void RuntimeStats::record_ladder_step(int camera_id, bool down, int step) {
  const std::string camera = label("camera", std::to_string(camera_id));
  registry_
      .counter(series("snappix_ladder_steps_total",
                      camera + "," + label("direction", down ? "down" : "up")))
      .add();
  registry_.gauge(series("snappix_camera_ladder_step", camera)).set(static_cast<double>(step));
}

void RuntimeStats::record_quarantine_drop(int camera_id) {
  camera(camera_id).quarantine_drops->add();
}

void RuntimeStats::record_watchdog_stall(std::size_t shard) {
  registry_.counter(series("snappix_watchdog_stalls_total", label("shard", std::to_string(shard))))
      .add();
}

void RuntimeStats::record_rerouted_frames(std::size_t count) { rerouted_frames_.add(count); }

void RuntimeStats::record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                                     double end_to_end_seconds, QosClass qos) {
  raw_bytes_.add(raw_bytes);
  wire_bytes_.add(wire_bytes);
  end_to_end_.observe(end_to_end_seconds);
  e2e_qos_[index_of(qos)]->observe(end_to_end_seconds);
}

RuntimeSummary RuntimeStats::summary(double wall_seconds) const {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  RuntimeSummary out;
  std::map<std::size_t, ShardStatsView> shards;
  CameraRows rows;
  for (const auto& [name, value] : snap.counters) {
    const std::string metric = name.substr(0, name.find('{'));
    const std::string shard = label_value(name, "shard");
    const std::string camera = label_value(name, "camera");
    if (!shard.empty()) {
      ShardStatsView& row = shards[std::stoul(shard)];
      row.shard = std::stoul(shard);
      add_shard_counter(row, out, metric, name, value);
    } else if (!camera.empty()) {
      if (value > 0) {  // a camera row exists only once something happened to it
        add_camera_counter(rows, out, std::stoi(camera), metric, name, value);
      }
    } else if (metric == "snappix_raw_bytes_total") {
      out.raw_bytes = value;
    } else if (metric == "snappix_wire_bytes_total") {
      out.wire_bytes = value;
    } else if (metric == "snappix_watchdog_rerouted_frames_total") {
      out.rerouted_frames = value;
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string shard = label_value(name, "shard");
    if (name.rfind("snappix_queue_high_water{", 0) == 0 && !shard.empty()) {
      shards[std::stoul(shard)].queue_high_water = static_cast<std::size_t>(value);
    }
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    const std::string qos = label_value(h.name, "qos");
    StageSummary* stage = h.name == "snappix_capture_seconds"      ? &out.capture
                          : h.name == "snappix_queue_wait_seconds" ? &out.queue_wait
                          : h.name == "snappix_inference_seconds"  ? &out.inference
                          : h.name == "snappix_e2e_seconds"        ? &out.end_to_end
                          : qos == to_string(QosClass::kRealtime)  ? &out.e2e_realtime
                          : qos == to_string(QosClass::kStandard)  ? &out.e2e_standard
                          : qos == to_string(QosClass::kBestEffort) ? &out.e2e_best_effort
                                                                    : nullptr;
    if (stage != nullptr) {
      *stage = summarize(h);
    }
  }

  for (auto& [index, s] : shards) {
    s.steal_successes = s.flush_steal;  // a successful probe IS a steal-flushed batch
    out.frames += s.frames;
    out.batches += s.batches;
    out.flush_max_batch += s.flush_max_batch;
    out.flush_max_latency += s.flush_max_latency;
    out.flush_exhausted += s.flush_exhausted;
    out.flush_holdback += s.flush_holdback;
    out.flush_steal += s.flush_steal;
    out.steal_attempts += s.steal_attempts;
    out.steal_successes += s.steal_successes;
    out.stolen_frames += s.stolen_frames;
    out.queue_high_water = std::max(out.queue_high_water, s.queue_high_water);
    out.shards.push_back(s);
  }
  out.cache_hits = out.cache_fp32.hits + out.cache_int8.hits;
  out.cache_misses = out.cache_fp32.misses + out.cache_int8.misses;
  out.cache_evictions = out.cache_fp32.evictions + out.cache_int8.evictions;
  for (const auto& [camera, c] : rows.shed) {
    out.shed_queue_full += c.queue_full;
    out.shed_deadline += c.deadline;
    out.deadline_misses += c.deadline_misses;
    out.shed_cameras.emplace_back(camera, c);
  }
  out.shed_frames = out.shed_queue_full + out.shed_deadline;
  for (const auto& [camera, c] : rows.transport) {
    out.transport.framed_frames += c.framed_frames;
    out.transport.ok_frames += c.ok_frames;
    out.transport.crc_errors += c.crc_errors;
    out.transport.truncated += c.truncated;
    out.transport.missing_lines += c.missing_lines;
    out.transport.retransmits += c.retransmits;
    out.transport.dropped_frames += c.dropped_frames;
    out.transport.codec_frames += c.codec_frames;
    out.transport.codec_planes_decoded += c.codec_planes_decoded;
    out.transport.codec_planes_total += c.codec_planes_total;
    out.transport_cameras.emplace_back(camera, c);
  }
  for (const auto& [camera, c] : rows.health) {
    out.health_transitions += c.transitions;
    out.ladder_steps_down += c.steps_down;
    out.ladder_steps_up += c.steps_up;
    out.quarantine_drops += c.quarantine_drops;
    out.health_cameras.emplace_back(camera, c);
  }

  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  out.wall_seconds = wall_seconds;
  out.aggregate_fps = wall_seconds > 0.0 ? static_cast<double>(out.frames) / wall_seconds : 0.0;
  out.mean_batch_size = ratio(out.frames, out.batches);
  out.cache_hit_rate = ratio(out.cache_hits, out.cache_hits + out.cache_misses);
  out.compression_ratio = ratio(out.raw_bytes, out.wire_bytes);
  return out;
}

FleetEnergyReport RuntimeStats::fleet_energy(const energy::EnergyModel& model,
                                             std::int64_t pixels_per_frame, int slots,
                                             energy::WirelessTech tech) const {
  const double frames = static_cast<double>(summary(0.0).frames);
  FleetEnergyReport report;
  report.conventional_j =
      frames * model.conventional_edge_energy_j(pixels_per_frame, slots, tech);
  report.snappix_j = frames * model.snappix_edge_energy_j(pixels_per_frame, slots, tech);
  report.saving_factor =
      report.snappix_j > 0.0 ? report.conventional_j / report.snappix_j : 0.0;
  return report;
}

std::string to_string(const RuntimeSummary& s) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "  frames %llu in %.3f s -> %.1f fps (batches %llu, mean size %.2f)\n"
      "  latency ms (mean/p50/p95/p99): capture %.3f/%.3f/%.3f/%.3f  queue "
      "%.3f/%.3f/%.3f/%.3f\n"
      "                                 infer %.3f/%.3f/%.3f/%.3f  e2e "
      "%.3f/%.3f/%.3f/%.3f\n"
      "  flushes: max_batch %llu max_latency %llu exhausted %llu holdback %llu "
      "steal %llu\n"
      "  queue high water %zu; bytes raw %llu vs wire %llu (%.1fx compression)\n"
      "  tasks: classify %llu / reconstruct %llu; engine cache hit %llu miss %llu "
      "evict %llu (hit rate %.2f)\n",
      static_cast<unsigned long long>(s.frames), s.wall_seconds, s.aggregate_fps,
      static_cast<unsigned long long>(s.batches), s.mean_batch_size, s.capture.mean_ms,
      s.capture.p50_ms, s.capture.p95_ms, s.capture.p99_ms, s.queue_wait.mean_ms,
      s.queue_wait.p50_ms, s.queue_wait.p95_ms, s.queue_wait.p99_ms, s.inference.mean_ms,
      s.inference.p50_ms, s.inference.p95_ms, s.inference.p99_ms, s.end_to_end.mean_ms,
      s.end_to_end.p50_ms, s.end_to_end.p95_ms, s.end_to_end.p99_ms,
      static_cast<unsigned long long>(s.flush_max_batch),
      static_cast<unsigned long long>(s.flush_max_latency),
      static_cast<unsigned long long>(s.flush_exhausted),
      static_cast<unsigned long long>(s.flush_holdback),
      static_cast<unsigned long long>(s.flush_steal), s.queue_high_water,
      static_cast<unsigned long long>(s.raw_bytes),
      static_cast<unsigned long long>(s.wire_bytes), s.compression_ratio,
      static_cast<unsigned long long>(s.classify_frames),
      static_cast<unsigned long long>(s.reconstruct_frames),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.cache_evictions), s.cache_hit_rate);
  std::string out(buf);
  if (s.int8_frames > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  precision: fp32 %llu / int8 %llu frames; cache fp32 %llu/%llu/%llu "
                  "int8 %llu/%llu/%llu (hit/miss/evict)\n",
                  static_cast<unsigned long long>(s.fp32_frames),
                  static_cast<unsigned long long>(s.int8_frames),
                  static_cast<unsigned long long>(s.cache_fp32.hits),
                  static_cast<unsigned long long>(s.cache_fp32.misses),
                  static_cast<unsigned long long>(s.cache_fp32.evictions),
                  static_cast<unsigned long long>(s.cache_int8.hits),
                  static_cast<unsigned long long>(s.cache_int8.misses),
                  static_cast<unsigned long long>(s.cache_int8.evictions));
    out += line;
  }
  if (!s.shards.empty()) {
    char line[256];
    std::snprintf(line, sizeof(line), "  steals: %llu/%llu succeeded (%llu frames stolen)\n",
                  static_cast<unsigned long long>(s.steal_successes),
                  static_cast<unsigned long long>(s.steal_attempts),
                  static_cast<unsigned long long>(s.stolen_frames));
    out += line;
    for (const ShardStatsView& shard : s.shards) {
      std::snprintf(line, sizeof(line),
                    "  shard %zu: frames %llu batches %llu stolen %llu (%llu frames) "
                    "cache %llu/%llu/%llu qhw %zu\n",
                    shard.shard, static_cast<unsigned long long>(shard.frames),
                    static_cast<unsigned long long>(shard.batches),
                    static_cast<unsigned long long>(shard.steal_successes),
                    static_cast<unsigned long long>(shard.stolen_frames),
                    static_cast<unsigned long long>(shard.cache_hits),
                    static_cast<unsigned long long>(shard.cache_misses),
                    static_cast<unsigned long long>(shard.cache_evictions),
                    shard.queue_high_water);
      out += line;
    }
  }
  if (s.shed_frames > 0 || s.deadline_misses > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  overload: shed %llu (queue_full %llu deadline %llu; rt %llu std %llu "
                  "be %llu) deadline misses %llu\n",
                  static_cast<unsigned long long>(s.shed_frames),
                  static_cast<unsigned long long>(s.shed_queue_full),
                  static_cast<unsigned long long>(s.shed_deadline),
                  static_cast<unsigned long long>(s.shed_realtime),
                  static_cast<unsigned long long>(s.shed_standard),
                  static_cast<unsigned long long>(s.shed_best_effort),
                  static_cast<unsigned long long>(s.deadline_misses));
    out += line;
    for (const auto& [camera_id, c] : s.shed_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: queue_full %llu deadline %llu misses %llu\n", camera_id,
                    static_cast<unsigned long long>(c.queue_full),
                    static_cast<unsigned long long>(c.deadline),
                    static_cast<unsigned long long>(c.deadline_misses));
      out += line;
    }
  }
  if (s.health_transitions > 0 || s.watchdog_stalls > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  health: transitions %llu ladder down %llu up %llu quarantine drops "
                  "%llu; watchdog stalls %llu rerouted %llu\n",
                  static_cast<unsigned long long>(s.health_transitions),
                  static_cast<unsigned long long>(s.ladder_steps_down),
                  static_cast<unsigned long long>(s.ladder_steps_up),
                  static_cast<unsigned long long>(s.quarantine_drops),
                  static_cast<unsigned long long>(s.watchdog_stalls),
                  static_cast<unsigned long long>(s.rerouted_frames));
    out += line;
    for (const auto& [camera_id, c] : s.health_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: transitions %llu down %llu up %llu quarantine %llu\n",
                    camera_id, static_cast<unsigned long long>(c.transitions),
                    static_cast<unsigned long long>(c.steps_down),
                    static_cast<unsigned long long>(c.steps_up),
                    static_cast<unsigned long long>(c.quarantine_drops));
      out += line;
    }
  }
  if (s.transport.framed_frames > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  transport: framed %llu ok %llu crc %llu trunc %llu missing %llu "
                  "retransmits %llu dropped %llu\n",
                  static_cast<unsigned long long>(s.transport.framed_frames),
                  static_cast<unsigned long long>(s.transport.ok_frames),
                  static_cast<unsigned long long>(s.transport.crc_errors),
                  static_cast<unsigned long long>(s.transport.truncated),
                  static_cast<unsigned long long>(s.transport.missing_lines),
                  static_cast<unsigned long long>(s.transport.retransmits),
                  static_cast<unsigned long long>(s.transport.dropped_frames));
    out += line;
    for (const auto& [camera_id, c] : s.transport_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: framed %llu ok %llu crc %llu trunc %llu missing %llu "
                    "retransmits %llu dropped %llu\n",
                    camera_id, static_cast<unsigned long long>(c.framed_frames),
                    static_cast<unsigned long long>(c.ok_frames),
                    static_cast<unsigned long long>(c.crc_errors),
                    static_cast<unsigned long long>(c.truncated),
                    static_cast<unsigned long long>(c.missing_lines),
                    static_cast<unsigned long long>(c.retransmits),
                    static_cast<unsigned long long>(c.dropped_frames));
      out += line;
    }
    if (s.transport.codec_frames > 0) {
      std::snprintf(line, sizeof(line),
                    "  codec: frames %llu planes decoded %llu of %llu\n",
                    static_cast<unsigned long long>(s.transport.codec_frames),
                    static_cast<unsigned long long>(s.transport.codec_planes_decoded),
                    static_cast<unsigned long long>(s.transport.codec_planes_total));
      out += line;
    }
  }
  return out;
}

}  // namespace snappix::runtime
