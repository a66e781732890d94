// Workload definitions, seeded inputs, the paced camera adapter, and one
// serving round.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "oracle.h"

namespace perfbench {

using namespace snappix;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// --- workload definitions ------------------------------------------------------

WorkloadSpec workload_spec(const std::string& name) {
  using runtime::Precision;
  using runtime::Task;
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fleet_replay") {
    // Closed loop, tiny engine work per frame: the runtime's own overhead
    // (batching, stealing, queue handoffs, REC result assembly) shows.
    spec.image = 16;
    spec.frames = 8;
    spec.classes = 4;
    spec.frames_per_camera = 4000;
    spec.slots = 16;
    spec.batch.max_batch = 6;
    spec.batch.max_delay = std::chrono::microseconds(3000);
    spec.cameras = {{Task::kClassify, Precision::kFp32, 0},
                    {Task::kReconstruct, Precision::kFp32, 0}};
  } else if (name == "paper_mixed") {
    // Closed loop at the paper's geometry: GEMMs and engine stages dominate.
    spec.image = 112;
    spec.frames = 16;
    spec.classes = 10;
    spec.frames_per_camera = 240;
    spec.slots = 16;
    spec.batch.max_batch = 8;
    spec.batch.max_delay = std::chrono::microseconds(2000);
    spec.cameras = {{Task::kClassify, Precision::kFp32, 0},
                    {Task::kClassify, Precision::kInt8, 0}};
  } else if (name == "edge_paced") {
    // Open loop: live CE encoding, entropy-coded CSI-2 links, paced capture.
    spec.image = 32;
    spec.frames = 16;
    spec.classes = 6;
    spec.paced = true;
    spec.rate_hz = 250.0;
    spec.frames_per_camera = 250;
    spec.slots = 24;  // 6 classes x 4 test clips
    spec.batch.max_batch = 8;
    spec.batch.max_delay = std::chrono::microseconds(2000);
    spec.cameras = {{Task::kClassify, Precision::kFp32, 8},
                    {Task::kReconstruct, Precision::kFp32, 0}};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

core::SnapPixConfig system_config(const WorkloadSpec& spec) {
  core::SnapPixConfig config;
  config.image = spec.image;
  config.frames = spec.frames;
  config.tile = 8;
  config.num_classes = spec.classes;
  config.seed = kModelSeed;
  return config;
}

namespace {

data::SceneConfig scene_config(const WorkloadSpec& spec) {
  data::SceneConfig scene;
  scene.frames = spec.frames;
  scene.height = spec.image;
  scene.width = spec.image;
  scene.num_classes = spec.classes;
  return scene;
}

// Two random CE patterns whose hashes route them to different shards of a
// 2-shard server (pattern_id % 2), so each shard serves one key.
std::pair<ce::CePattern, ce::CePattern> shard_split_patterns(const WorkloadSpec& spec,
                                                             Rng& rng) {
  ce::CePattern a = ce::CePattern::random(spec.frames, 8, rng, 0.5F);
  for (;;) {
    ce::CePattern b = ce::CePattern::random(spec.frames, 8, rng, 0.5F);
    if (b.hash() % 2 != a.hash() % 2) {
      return {std::move(a), std::move(b)};
    }
  }
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  Rng rng(0x5eed0000ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  auto patterns = shard_split_patterns(spec, rng);
  const runtime::PatternRef refs[2] = {runtime::make_pattern_ref(std::move(patterns.first)),
                                       runtime::make_pattern_ref(std::move(patterns.second))};

  if (spec.paced) {
    data::DatasetConfig config = data::ucf101_like(spec.frames, spec.image);
    config.scene.num_classes = spec.classes;
    config.train_per_class = 1;
    config.test_per_class = spec.slots / spec.classes;
    config.seed = rng.engine()();
    inputs.dataset = std::make_shared<const data::VideoDataset>(config);
  }
  const data::SyntheticVideoGenerator generator(scene_config(spec));
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    CameraInputs cam;
    cam.pattern = refs[c];
    Rng scene_rng = rng.split();
    for (int s = 0; s < spec.slots; ++s) {
      if (spec.paced) {
        const data::VideoSample& sample = inputs.dataset->test_sample(s);
        cam.clips.push_back(sample.video);
        cam.labels.push_back(sample.label);
      } else {
        data::VideoSample sample = generator.sample(scene_rng);
        cam.clips.push_back(sample.video);
        cam.labels.push_back(sample.label);
      }
      Tensor coded = plain_ce_encode(cam.clips.back(), *cam.pattern);
      if (spec.paced) {
        const int planes = spec.cameras[c].task == runtime::Task::kClassify
                               ? spec.cameras[c].codec_planes
                               : 0;
        cam.expected_input.push_back(wire_view(coded, planes));
        cam.expected_wire_bytes.push_back(csi2_codec_wire_bytes(coded, planes));
      } else {
        cam.expected_input.push_back(coded);
        // In-memory replay ships the analytic 8-bit readout of one coded image.
        cam.expected_wire_bytes.push_back(static_cast<std::uint64_t>(spec.image) *
                                          static_cast<std::uint64_t>(spec.image));
      }
      cam.coded.push_back(std::move(coded));
    }
    inputs.cameras.push_back(std::move(cam));
  }
  return inputs;
}

// --- the paced camera -------------------------------------------------------------

namespace {

// A dataset camera on an absolute schedule: frame i is due at
// start + i * period, where start is the camera's first capture call. Before
// each capture it sleeps until the frame is due and records, per frame, the
// signed lead (due - call) and the time spent sleeping, so the benchmark can
// time every frame from its due time and take the sleep out of capture.
class PacedCamera final : public runtime::DatasetCameraSource {
 public:
  PacedCamera(int id, std::shared_ptr<const data::VideoDataset> dataset,
              runtime::PatternRef pattern, Clock::duration period, std::int64_t frames)
      : DatasetCameraSource(id, std::move(dataset), std::move(pattern)), period_(period),
        lead_s_(static_cast<std::size_t>(frames), 0.0),
        sleep_s_(static_cast<std::size_t>(frames), 0.0) {}

  const std::vector<double>& lead_s() const { return lead_s_; }
  const std::vector<double>& sleep_s() const { return sleep_s_; }

 protected:
  runtime::Frame capture_frame() override {
    const Clock::time_point call = Clock::now();
    if (count_ == 0) {
      start_ = call;
    }
    const Clock::time_point due = start_ + period_ * count_;
    std::this_thread::sleep_until(due);
    const auto i = static_cast<std::size_t>(count_);
    if (i < lead_s_.size()) {
      lead_s_[i] = std::chrono::duration<double>(due - call).count();
      sleep_s_[i] = seconds_since(call);
    }
    ++count_;
    return DatasetCameraSource::capture_frame();
  }

 private:
  Clock::duration period_;
  Clock::time_point start_{};
  std::int64_t count_ = 0;
  std::vector<double> lead_s_;
  std::vector<double> sleep_s_;
};

runtime::ServerConfig server_config(const WorkloadSpec& spec, bool traced) {
  runtime::ServerConfig config;
  config.batch = spec.batch;
  config.shards = 2;  // two shard workers + two camera producers = 4 load threads
  config.cache.shards = 2;
  config.cache.capacity_per_shard = 4;
  if (traced) {
    config.trace.enabled = true;
    config.trace.sample_every = 1;
    config.trace.max_events_per_lane = std::size_t{1} << 23;
  }
  return config;
}

// The system, the server and its cameras, constructed as a user would.
// Members are destroyed in reverse order: the server before its system.
struct Stack {
  std::unique_ptr<core::SnapPixSystem> system;
  std::unique_ptr<runtime::InferenceServer> server;
  std::vector<const PacedCamera*> paced;  // owned by the server
};

Stack set_up(const WorkloadSpec& spec, const Inputs& inputs, bool traced) {
  Stack stack;
  stack.system = std::make_unique<core::SnapPixSystem>(system_config(spec));
  stack.server =
      std::make_unique<runtime::InferenceServer>(*stack.system, server_config(spec, traced));
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    const CameraSpec& cs = spec.cameras[c];
    const CameraInputs& in = inputs.cameras[c];
    const int id = static_cast<int>(c);
    std::unique_ptr<runtime::CameraSource> camera;
    if (spec.paced) {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / spec.rate_hz));
      auto pc = std::make_unique<PacedCamera>(id, inputs.dataset, in.pattern, period,
                                              spec.frames_per_camera);
      transport::LinkConfig link;
      link.codec = true;
      pc->set_framed(link);
      pc->set_codec_planes(cs.codec_planes);
      stack.paced.push_back(pc.get());
      camera = std::move(pc);
    } else {
      camera = std::make_unique<runtime::ReplayCameraSource>(id, in.pattern, in.coded,
                                                             in.labels);
    }
    camera->set_task(cs.task);
    camera->set_precision(cs.precision);
    stack.server->add_camera(std::move(camera));
  }
  return stack;
}

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, const Inputs& inputs, bool traced) {
  RoundResult round;
  // Set-up is short next to a round, so it is timed several times; the
  // last stack built serves.
  Stack stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.server.reset();  // before the system it serves
    stack.system.reset();
    const Clock::time_point setup_start = Clock::now();
    stack = set_up(spec, inputs, traced);
    round.setup_s.push_back(seconds_since(setup_start));
  }
  runtime::InferenceServer& server = *stack.server;
  const std::vector<const PacedCamera*>& paced = stack.paced;

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point run_start = Clock::now();
  round.results = server.run(spec.frames_per_camera);
  round.wall_s = seconds_since(run_start);
  round.cpu_s = process_cpu_seconds() - cpu_start;
  round.peak_rss_mb = peak_rss_mb();
  round.summary = server.summary();

  // The cameras live inside the server until it is destroyed below; run()
  // joined their producer threads, so their logs are complete and visible.
  std::vector<std::vector<double>> lead(spec.cameras.size());
  std::vector<std::vector<double>> sleep(spec.cameras.size());
  for (std::size_t c = 0; c < paced.size(); ++c) {
    lead[c] = paced[c]->lead_s();
    sleep[c] = paced[c]->sleep_s();
    for (std::size_t i = 0; i < lead[c].size(); ++i) {
      round.lead_sum_s += lead[c][i];
      round.sleep_sum_s += sleep[c][i];
      const double late = std::max(0.0, -lead[c][i]);
      round.lateness_sum_s += late;
      round.lateness_max_s = std::max(round.lateness_max_s, late);
    }
  }

  if (traced) {
    const obs::TraceRecorder& recorder = *server.trace_recorder();
    const std::vector<obs::TraceEvent> events = recorder.all_events();
    RoundResult::Trace& trace = round.trace;
    trace.events = events.size();
    trace.dropped = recorder.dropped_events();
    trace.self_s = self_times_s(events);
    // Per-frame lifecycles: async b/e pairs keyed by (camera, sequence).
    std::map<std::uint64_t, std::int64_t> frame_begin;
    std::map<std::uint64_t, std::int64_t> capture_begin;
    const auto per_frame = [&](const std::vector<std::vector<double>>& log, std::uint64_t id) {
      const std::size_t cam = static_cast<std::size_t>(id >> 32);
      const std::size_t seq = static_cast<std::size_t>(id & 0xFFFFFFFF);
      return cam < log.size() && seq < log[cam].size() ? log[cam][seq] : 0.0;
    };
    for (const obs::TraceEvent& e : events) {
      if (e.ph == 'X' && e.name == "cache_resolve") {
        trace.cache_resolve_s += static_cast<double>(e.dur_ns) * 1e-9;
        continue;
      }
      if (e.cat != "frame" || (e.name != "frame" && e.name != "capture")) {
        continue;
      }
      auto& open = e.name == "frame" ? frame_begin : capture_begin;
      if (e.ph == 'b') {
        open[e.id] = e.ts_ns;
        continue;
      }
      const auto it = open.find(e.id);
      if (it == open.end()) {
        continue;
      }
      const double span_s = static_cast<double>(e.ts_ns - it->second) * 1e-9;
      if (e.name == "frame") {
        trace.e2e_s.push_back(span_s - per_frame(lead, e.id));
      } else {
        trace.capture_busy_s += span_s - per_frame(sleep, e.id);
      }
      open.erase(it);
    }
    trace.frames = trace.e2e_s.size();
  }
  return round;
}

}  // namespace perfbench
