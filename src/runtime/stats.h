/// \file stats.h
/// \brief RuntimeStats: the serving tier's one metrics plane, plus the
/// bridge into the Sec. VI-D energy model.
///
/// RuntimeStats owns an obs::MetricsRegistry and records every serving event
/// ONCE, into one registry series: fleet-wide counters and latency
/// histograms, per-shard series labeled {shard="i"} and per-camera series
/// labeled {camera="c"} (docs/observability.md lists every name). Recording
/// is lock-free: each hot-path series is resolved by name once (a shard's in
/// shard(), a camera's at its first event) and recorded through relaxed
/// atomics after that, so no name is built per frame or per batch.
///
/// summary() is a pure function of one registry snapshot, i.e. of exactly
/// what InferenceServer::metrics_snapshot() exports through obs::to_json /
/// obs::to_prometheus. fleet_energy() prices the recorded traffic with
/// energy::EnergyModel so a streaming run reports the same
/// baseline-vs-SNAPPIX numbers as the static scenario calculators.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "energy/model.h"
#include "obs/metrics.h"
#include "runtime/engine_cache.h"
#include "runtime/frame.h"

namespace snappix::runtime {

/// \brief Condensed view of one pipeline stage's latency series.
struct StageSummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief One consumer shard's share of a run, rebuilt by summary() from the
/// shard's {shard="i"} series.
///
/// `frames`/`batches` count everything THIS shard's worker served, including
/// batches it stole; `steal_*` describe its thieving (attempts = victim
/// queues probed while idle, successes = non-empty tail batches taken,
/// stolen_frames = frames inside them). The cache counters are the shard's
/// private EngineCache view. Summing shard frames/batches/cache counters
/// over all shards reproduces the run totals.
struct ShardStatsView {
  std::size_t shard = 0;                ///< shard index in [0, ServerConfig::shards)
  std::uint64_t frames = 0;             ///< frames served by this shard's worker
  std::uint64_t batches = 0;            ///< batches dispatched (own + stolen)
  std::uint64_t steal_attempts = 0;     ///< victim-queue probes while idle
  std::uint64_t steal_successes = 0;    ///< probes that came back with a batch
  std::uint64_t stolen_frames = 0;      ///< frames served out of stolen batches
  std::uint64_t cache_hits = 0;         ///< this shard's EngineCache hits
  std::uint64_t cache_misses = 0;       ///< misses (entry rebuilds)
  std::uint64_t cache_evictions = 0;    ///< LRU evictions under capacity pressure
  std::size_t queue_high_water = 0;     ///< deepest this shard's run queue got

  /// Why this shard's batches closed, by FlushReason. The sum over reasons
  /// equals `batches`; `flush_steal` equals `steal_successes`.
  std::uint64_t flush_max_batch = 0;
  std::uint64_t flush_max_latency = 0;
  std::uint64_t flush_exhausted = 0;
  std::uint64_t flush_holdback = 0;
  std::uint64_t flush_steal = 0;
};

/// \brief One camera's overload tally: frames the runtime shed instead of
/// serving, by reason, plus deadline misses (frames that WERE served but
/// finished after their deadline — late answers delivered, distinct from
/// drop-late sheds). All zero for cameras that never hit overload. Summing
/// over cameras gives the fleet totals in RuntimeSummary.
struct ShedCounters {
  std::uint64_t queue_full = 0;       ///< admission rejects (best-effort, full queue)
  std::uint64_t deadline = 0;         ///< drop-late: expired before serving began
  std::uint64_t deadline_misses = 0;  ///< served, but past the deadline
};

/// \brief One camera's health-supervision tally (runtime/health.h): state
/// transitions, degradation-ladder traffic, and captures skipped while
/// quarantined. All zero for cameras never supervised or never degraded.
struct HealthCounters {
  std::uint64_t transitions = 0;       ///< health state changes
  std::uint64_t steps_down = 0;        ///< ladder rungs engaged (degradations)
  std::uint64_t steps_up = 0;          ///< ladder rungs released (recoveries)
  std::uint64_t quarantine_drops = 0;  ///< captures skipped while quarantined
};

/// \brief One camera's framed-transport tally: how its frames fared on the
/// wire, by FINAL outcome (a frame that recovers via retransmit counts as ok;
/// the retries it burned show up in `retransmits`). All zero for cameras that
/// hop in memory. Summing over cameras gives the fleet totals in
/// RuntimeSummary::transport.
struct TransportCounters {
  std::uint64_t framed_frames = 0;   ///< frames that crossed a framed link
  std::uint64_t ok_frames = 0;       ///< delivered intact (possibly after retries)
  std::uint64_t crc_errors = 0;      ///< final outcome: payload CRC failure
  std::uint64_t truncated = 0;       ///< final outcome: stream cut mid-frame
  std::uint64_t missing_lines = 0;   ///< final outcome: row packets lost
  std::uint64_t retransmits = 0;     ///< framed re-transfers spent by the policy
  std::uint64_t dropped_frames = 0;  ///< corrupt after the policy: never served

  /// Progressive-decode tally for frames that crossed an entropy-coded link
  /// (all zero on raw links). `codec_planes_decoded <= codec_planes_total`;
  /// the gap is depth deliberately left on the wire (truncated classify
  /// frames) plus planes lost to faults.
  std::uint64_t codec_frames = 0;         ///< frames that crossed a codec link
  std::uint64_t codec_planes_decoded = 0; ///< bit-planes actually decoded
  std::uint64_t codec_planes_total = 0;   ///< bit-planes the full streams held
};

/// \brief Everything a completed run reports: throughput, per-stage latency
/// percentiles, task/cache/steal counters, per-shard views, byte volumes.
struct RuntimeSummary {
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  double wall_seconds = 0.0;
  double aggregate_fps = 0.0;     ///< frames / wall_seconds
  double mean_batch_size = 0.0;
  std::size_t queue_high_water = 0;  ///< max over all shard queues

  /// Per-task frame counts (classify + reconstruct == frames).
  std::uint64_t classify_frames = 0;
  std::uint64_t reconstruct_frames = 0;

  /// Per-precision frame counts (fp32 + int8 == frames).
  std::uint64_t fp32_frames = 0;
  std::uint64_t int8_frames = 0;

  /// EngineCache traffic summed over every shard's cache (zero under direct
  /// RuntimeStats use).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;  ///< hits / (hits + misses)

  /// The same cache traffic split by precision tier (fp32 + int8 == totals).
  EngineCacheCounters cache_fp32;
  EngineCacheCounters cache_int8;

  /// Work-stealing totals summed over shards (all zero with one shard).
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t stolen_frames = 0;

  /// Batch flush reasons, run-wide (sum over reasons == batches).
  std::uint64_t flush_max_batch = 0;
  std::uint64_t flush_max_latency = 0;
  std::uint64_t flush_exhausted = 0;
  std::uint64_t flush_holdback = 0;
  std::uint64_t flush_steal = 0;

  /// Per-shard breakdown, one row per shard whose series were resolved
  /// (every shard of a server), sorted by shard index.
  std::vector<ShardStatsView> shards;

  /// Framed-transport totals summed over cameras (all zero when every frame
  /// hops in memory), plus the per-camera breakdown sorted by camera id.
  TransportCounters transport;
  std::vector<std::pair<int, TransportCounters>> transport_cameras;

  /// Overload totals: frames shed (never served) by reason and by QoS
  /// class, late-served deadline misses, and the per-camera breakdown
  /// sorted by camera id. Conservation per queue: admitted frames ==
  /// served + shed_deadline + still queued at shutdown; queue_full sheds
  /// never entered a queue at all.
  std::uint64_t shed_frames = 0;      ///< total sheds (queue_full + deadline)
  std::uint64_t shed_queue_full = 0;  ///< admission rejects
  std::uint64_t shed_deadline = 0;    ///< drop-late expiries
  std::uint64_t shed_realtime = 0;    ///< sheds of realtime frames (gated zero)
  std::uint64_t shed_standard = 0;
  std::uint64_t shed_best_effort = 0;
  std::uint64_t deadline_misses = 0;  ///< served but late
  std::vector<std::pair<int, ShedCounters>> shed_cameras;

  /// Fleet-health supervision totals (runtime/health.h; all zero when the
  /// controller is disabled), plus the per-camera breakdown sorted by id.
  /// Conservation with supervision on: offered == served + shed +
  /// transport dropped_frames + quarantine_drops (+ frames still queued at
  /// shutdown).
  std::uint64_t health_transitions = 0;
  std::uint64_t ladder_steps_down = 0;
  std::uint64_t ladder_steps_up = 0;
  std::uint64_t quarantine_drops = 0;
  std::uint64_t watchdog_stalls = 0;   ///< shard-stall detections
  std::uint64_t rerouted_frames = 0;   ///< frames drained + re-admitted by the watchdog
  std::vector<std::pair<int, HealthCounters>> health_cameras;

  StageSummary capture;      ///< camera next_frame() + framed transport retries
  StageSummary queue_wait;   ///< enqueue -> pop (or steal)
  StageSummary inference;    ///< model forward per batch
  StageSummary end_to_end;   ///< capture start -> result recorded

  /// end_to_end split by QoS class (counts sum to end_to_end.count when the
  /// server records QoS; all empty under direct RuntimeStats use). The
  /// saturation bench gates realtime p99 from e2e_realtime.
  StageSummary e2e_realtime;
  StageSummary e2e_standard;
  StageSummary e2e_best_effort;

  std::uint64_t raw_bytes = 0;     ///< conventional readout volume
  std::uint64_t wire_bytes = 0;    ///< coded volume actually shipped
  double compression_ratio = 0.0;  ///< raw / wire
};

/// \brief Whole-run energy bill priced through energy::EnergyModel.
struct FleetEnergyReport {
  double conventional_j = 0.0;  ///< T-frame readout + transmit, whole run
  double snappix_j = 0.0;       ///< CE capture + coded transmit, whole run
  double saving_factor = 0.0;
};

/// \brief One consumer shard's registry series ({shard="i"}), resolved once
/// by RuntimeStats::shard(). The serving loop records through these
/// pointers; summary() reads the same series back by name.
struct ShardSeries {
  /// snappix_frames_total{task,precision}, indexed [Task][Precision].
  std::array<std::array<obs::Counter*, 2>, 2> frames{};
  std::array<obs::Counter*, 5> batches{};  ///< snappix_batches_total{reason}, by FlushReason
  obs::Counter* stolen_frames = nullptr;   ///< snappix_stolen_frames_total
  obs::Counter* steal_probes = nullptr;    ///< snappix_steal_probes_total
  obs::Gauge* queue_high_water = nullptr;  ///< snappix_queue_high_water
  CacheSeries cache;  ///< snappix_cache_{hits,misses,evictions}_total{precision}
};

/// \brief Thread-safe run-wide recorder. Producers, shard workers, the
/// health controller and the watchdog all record into one instance; every
/// record_* call is lock-free and increments one registry series per fact.
class RuntimeStats {
 public:
  RuntimeStats();
  ~RuntimeStats();
  RuntimeStats(const RuntimeStats&) = delete;
  RuntimeStats& operator=(const RuntimeStats&) = delete;

  /// \brief Resolves shard `index`'s series, creating them (a shard row in
  /// summary()) on first call. Cold: names are built here, once per shard.
  ShardSeries shard(std::size_t index);

  // --- producer side ---------------------------------------------------------
  void record_capture(double seconds);

  // --- consumer side (any shard worker) --------------------------------------
  void record_queue_wait(double seconds);
  /// \brief One batch served by `shard`: its frames by task head and
  /// precision tier, its flush reason (kSteal batches also count as stolen
  /// frames) and its inference time.
  void record_batch(const ShardSeries& shard, std::size_t batch_size,
                    double inference_seconds, FlushReason reason = FlushReason::kMaxBatch,
                    Task task = Task::kClassify, Precision precision = Precision::kFp32);
  /// \brief Records one framed frame's FINAL transport outcome (`status`,
  /// never kInMemory) and the retries the policy spent on it. A corrupt
  /// final outcome is a dropped frame. Called once per framed frame by the
  /// producer loop. When the frame crossed an entropy-coded link, pass
  /// `codec = true` plus its decoded/total bit-plane counts.
  void record_transport(int camera_id, TransportStatus status, int retransmits,
                        bool codec = false, int decoded_planes = 0, int total_planes = 0);
  /// \brief Records one shed frame into
  /// snappix_shed_frames_total{camera,qos,reason}. Called by the queue shed
  /// observers, once per shed, on whichever thread shed it.
  void record_shed(int camera_id, QosClass qos, ShedReason reason);
  /// \brief Records a frame that was SERVED but finished after its deadline
  /// — a late answer delivered, distinct from a drop-late shed.
  void record_deadline_miss(int camera_id);
  /// \brief Records a camera health-state transition (runtime/health.h) into
  /// snappix_health_transitions_total{camera,from,to} and sets the camera's
  /// snappix_camera_health gauge. Cold: at most once per window per camera.
  void record_health_transition(int camera_id, HealthState from, HealthState to);
  /// \brief Records a degradation-ladder move to `step` rungs engaged
  /// (`down` = a degradation) into snappix_ladder_steps_total{camera,direction}
  /// and sets the camera's snappix_camera_ladder_step gauge. Cold.
  void record_ladder_step(int camera_id, bool down, int step);
  /// \brief Records one capture skipped because its camera is quarantined.
  void record_quarantine_drop(int camera_id);
  /// \brief Records the watchdog declaring shard `shard` stalled. Cold.
  void record_watchdog_stall(std::size_t shard);
  /// \brief Records `count` frames the watchdog drained from a stalled shard
  /// and re-admitted into a sibling's queue.
  void record_rerouted_frames(std::size_t count);
  /// \brief `qos` additionally feeds the per-class e2e histogram
  /// (snappix_e2e_seconds{qos=...}); callers without QoS default to
  /// kStandard.
  void record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                         double end_to_end_seconds, QosClass qos = QosClass::kStandard);

  // --- reporting -------------------------------------------------------------
  /// \brief Rebuilds every total and row from one registry snapshot.
  RuntimeSummary summary(double wall_seconds) const;

  /// \brief The live metrics registry backing every record_* path. Safe to
  /// snapshot mid-run (obs::MetricsRegistry::snapshot is lock-free on the
  /// value reads); InferenceServer::metrics_snapshot() is a thin wrapper.
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricsRegistry& registry() { return registry_; }

  /// \brief Prices the recorded frame traffic: every served frame represents
  /// one T-slot capture that a conventional pipeline would read out and
  /// transmit T times. `pixels_per_frame`/`slots` describe the camera
  /// geometry.
  FleetEnergyReport fleet_energy(const energy::EnergyModel& model,
                                 std::int64_t pixels_per_frame, int slots,
                                 energy::WirelessTech tech) const;

 private:
  struct CameraSeries;  // one camera's hot-path series (stats.cpp)
  /// The camera's series, resolved on its first event.
  CameraSeries& camera(int camera_id);

  obs::MetricsRegistry registry_;
  // References resolved once at construction; recording through them is
  // lock-free (see obs/metrics.h).
  obs::Histogram& capture_;
  obs::Histogram& queue_wait_;
  obs::Histogram& inference_;
  obs::Histogram& end_to_end_;
  obs::Counter& raw_bytes_;
  obs::Counter& wire_bytes_;
  obs::Counter& rerouted_frames_;
  std::array<obs::Histogram*, 3> e2e_qos_{};  // indexed by QosClass

  // Lock-free, grow-only index from camera id to its series: bucket
  // `id % kCameraBuckets` heads a singly-linked chain whose nodes are
  // immutable once published. An index, not a store: the counts live in
  // registry_.
  static constexpr std::size_t kCameraBuckets = 64;
  // order: release CAS publishes a fully built node (and its `next` link)
  // as the new bucket head; readers acquire-load the head before walking.
  std::array<std::atomic<CameraSeries*>, kCameraBuckets> cameras_{};
};

/// \brief Renders a summary as an aligned human-readable block.
std::string to_string(const RuntimeSummary& summary);

}  // namespace snappix::runtime
