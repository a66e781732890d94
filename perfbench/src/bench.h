// Shared declarations of the end-to-end benchmark (see perfbench/README.md).
//
//   workload.cpp  workload definitions, seeded inputs, the paced camera
//                 adapter, and one serving round (set up, run(), tear down)
//   oracle.cpp    references computed apart from the serving path, the
//                 correctness checks, and their self-tests
//   layers.cpp    direct per-layer calls under the benchmark's own spans,
//                 and the reading of the spans the program exports
//   main.cpp      argument parsing, the measured runs, the report and the
//                 result line
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using snappix::Tensor;

double seconds_since(Clock::time_point start);
/// User + system CPU time of the whole process, in seconds.
double process_cpu_seconds();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();
double median(std::vector<double> values);
/// Nearest-rank percentile (`p` in [0, 100]) of exact samples.
double percentile(std::vector<double> values, double p);

// --- workloads ----------------------------------------------------------------

struct CameraSpec {
  snappix::runtime::Task task;
  snappix::runtime::Precision precision;
  /// Paced cameras only: bit-planes sent for this camera's frames (0 = all).
  int codec_planes;
};

struct WorkloadSpec {
  std::string name;
  int image = 0;
  int frames = 0;  ///< exposure slots T
  int classes = 0;
  bool paced = false;         ///< open loop on an absolute schedule
  double rate_hz = 0.0;       ///< per camera, paced only
  std::int64_t frames_per_camera = 0;  ///< per serving round
  int slots = 0;  ///< distinct inputs per camera (replay buffer / dataset test clips)
  snappix::runtime::BatchPolicy batch;
  std::vector<CameraSpec> cameras;
};

WorkloadSpec workload_spec(const std::string& name);
/// Seed of the served model's weights: the model is part of the program, the
/// inputs are what --seed varies.
constexpr std::uint64_t kModelSeed = 1;
snappix::core::SnapPixConfig system_config(const WorkloadSpec& spec);

/// Everything a workload feeds the program, generated from --seed before any
/// timing starts.
struct CameraInputs {
  snappix::runtime::PatternRef pattern;
  std::vector<Tensor> clips;             ///< (T, H, W) scenes, one per slot
  std::vector<std::int64_t> labels;
  std::vector<Tensor> coded;             ///< plain-loop Eqn. 1 + exposure normalization
  std::vector<Tensor> expected_input;    ///< what the server must receive, per slot
  std::vector<std::uint64_t> expected_wire_bytes;  ///< per slot
};

struct Inputs {
  std::vector<CameraInputs> cameras;
  std::shared_ptr<const snappix::data::VideoDataset> dataset;  ///< paced only
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Exact figures of one serving round: a fresh system and server, run() over
/// frames_per_camera frames per camera, read before teardown.
struct RoundResult {
  std::vector<double> setup_s;  ///< one per set-up (kSetupRepeats)
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< process high-water mark when run() returned
  snappix::runtime::RuntimeSummary summary;
  std::vector<snappix::runtime::TaskResult> results;
  /// Paced cameras: sum over frames of (due time - capture call), signed,
  /// and of the time spent sleeping until due; lateness against schedule.
  double lead_sum_s = 0.0;
  double sleep_sum_s = 0.0;
  double lateness_sum_s = 0.0;
  double lateness_max_s = 0.0;
  /// Traced rounds only.
  struct Trace {
    std::size_t events = 0;
    std::size_t dropped = 0;
    /// Span name -> summed self time (s) over the shard lanes.
    std::map<std::string, double> self_s;
    /// Per served frame, due -> result (s), from the lifecycle spans.
    std::vector<double> e2e_s;
    /// Producer-side capture time with the pacing sleep removed (s), summed.
    double capture_busy_s = 0.0;
    /// Engine-cache resolution spans (engine builds and int8 calibration
    /// on a miss), children included, summed (s).
    double cache_resolve_s = 0.0;
    std::size_t frames = 0;
  } trace;
};

/// Each round constructs the system and server this many times and serves
/// with the last; setup_s is the median over every construction.
constexpr int kSetupRepeats = 5;
RoundResult run_round(const WorkloadSpec& spec, const Inputs& inputs, bool traced);

// --- correctness ----------------------------------------------------------------

/// First answer seen per (camera, slot); later repeats must match it exactly.
struct Ledger {
  std::vector<std::vector<std::int64_t>> label;
  std::vector<std::vector<std::vector<float>>> video;
};
Ledger make_ledger(const WorkloadSpec& spec);

/// Each check returns "" when it passes, else what failed.
std::string check_conservation(const WorkloadSpec& spec, const Inputs& inputs,
                               const std::vector<snappix::runtime::TaskResult>& results);
std::string fold_repeats(const WorkloadSpec& spec,
                         const std::vector<snappix::runtime::TaskResult>& results,
                         Ledger& ledger);
std::string check_wire_bytes(const WorkloadSpec& spec, const Inputs& inputs,
                             const std::vector<snappix::runtime::TaskResult>& results,
                             std::uint64_t wire_bytes);

/// Full-depth codec wire bytes of each of a camera's coded slots.
std::vector<std::uint64_t> full_depth_wire_bytes(const CameraInputs& cam);
/// Slot by slot: truncated < full < raw.
std::string check_wire_order(const std::vector<std::uint64_t>& truncated,
                             const std::vector<std::uint64_t>& full, std::uint64_t raw);

struct References {
  std::vector<std::vector<std::int64_t>> label;  ///< fp32 tape top-1, per camera/slot
  std::vector<std::vector<Tensor>> video;        ///< tape reconstruction (REC cameras)
};
References compute_references(const WorkloadSpec& spec, const Inputs& inputs);

/// int8 answers must agree with the fp32 reference on at least this share.
constexpr double kInt8MinAgreement = 0.75;

struct ReferenceCheck {
  std::string error;
  double int8_agreement = 1.0;  ///< 1 when no int8 camera
};
ReferenceCheck check_references(const WorkloadSpec& spec, const Ledger& ledger,
                                const References& refs);

/// Self-tests: each check runs on deliberately corrupted copies of real
/// outputs (`ledger` must already hold `results`); "" when every check fails
/// as it should.
std::string self_test_result_checks(const WorkloadSpec& spec, const Inputs& inputs,
                                    const std::vector<snappix::runtime::TaskResult>& results,
                                    std::uint64_t wire_bytes, const Ledger& ledger);
std::string self_test_reference_check(const WorkloadSpec& spec, const Ledger& ledger,
                                      const References& refs);

// --- per-layer measurements -------------------------------------------------------

/// Direct calls into each layer at the workload's geometry, timed by the
/// benchmark's own spans. Returns metric name -> value.
std::map<std::string, double> measure_layers(const WorkloadSpec& spec, const Inputs& inputs,
                                             double budget_s, std::uint64_t seed);

/// Self time per span name over every complete event of `events`, nesting
/// by interval containment per lane.
std::map<std::string, double> self_times_s(const std::vector<snappix::obs::TraceEvent>& events);

}  // namespace perfbench
