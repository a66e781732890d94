// Per-layer measurements: direct calls into each layer at the workload's
// geometry, each wrapped in a span on the benchmark's own trace lane, and the
// self-time reading shared with the spans the program exports.
#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "bench.h"
#include "ce/encode.h"
#include "codec/bitplane.h"
#include "runtime/engine.h"
#include "runtime/quant.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "transport/link.h"

namespace perfbench {

using namespace snappix;

std::map<std::string, double> self_times_s(const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> lanes;
  for (const obs::TraceEvent& e : events) {
    if (e.ph == 'X') {
      lanes[e.tid].push_back(&e);
    }
  }
  std::map<std::string, double> self;
  for (auto& [tid, lane] : lanes) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(lane.begin(), lane.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<double> self_ns(lane.size());
    std::vector<std::size_t> open;  // stack of enclosing spans
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const obs::TraceEvent& e = *lane[i];
      while (!open.empty() &&
             lane[open.back()]->ts_ns + lane[open.back()]->dur_ns < e.ts_ns + e.dur_ns) {
        open.pop_back();
      }
      self_ns[i] = static_cast<double>(e.dur_ns);
      if (!open.empty()) {
        self_ns[open.back()] -= static_cast<double>(e.dur_ns);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < lane.size(); ++i) {
      self[lane[i]->name] += self_ns[i] * 1e-9;
    }
  }
  return self;
}

namespace {

// Calls `fn` at least `min_calls` times and until `budget_s` has passed, each
// call inside a span named `name` on a fresh benchmark-owned lane. Returns the
// per-call durations and the self time of every span recorded meanwhile
// (including the stage spans the engines emit under the benchmark's span).
struct Timed {
  std::vector<double> call_s;
  std::map<std::string, double> self_s;
  double median_s() const { return median(call_s); }
};

Timed timed_calls(const char* name, double budget_s, int min_calls,
                  const std::function<void(int)>& fn) {
  obs::TraceConfig config;
  config.enabled = true;
  config.max_events_per_lane = std::size_t{1} << 22;
  obs::TraceRecorder recorder(config);
  obs::TraceLane* lane = recorder.create_lane("perfbench");
  {
    const obs::ScopedTraceLane scope(&recorder, lane);
    const Clock::time_point start = Clock::now();
    for (int call = 0; call < min_calls || seconds_since(start) < budget_s; ++call) {
      const obs::ScopedSpan span(name);
      fn(call);
    }
  }
  Timed timed;
  const std::vector<obs::TraceEvent> events = recorder.all_events();
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) {
      timed.call_s.push_back(static_cast<double>(e.dur_ns) * 1e-9);
    }
  }
  timed.self_s = self_times_s(events);
  return timed;
}

Tensor stack_frames(const std::vector<Tensor>& frames, std::size_t first, std::int64_t count) {
  const std::int64_t h = frames[0].shape()[0];
  const std::int64_t w = frames[0].shape()[1];
  std::vector<float> data;
  for (std::int64_t i = 0; i < count; ++i) {
    const Tensor& f = frames[(first + static_cast<std::size_t>(i)) % frames.size()];
    data.insert(data.end(), f.data().begin(), f.data().end());
  }
  return Tensor::from_vector(std::move(data), Shape{count, h, w});
}

}  // namespace

std::map<std::string, double> measure_layers(const WorkloadSpec& spec, const Inputs& inputs,
                                             double budget_s, std::uint64_t seed) {
  NoGradGuard guard;
  std::map<std::string, double> m;
  // Twelve timed groups share the budget; minimum call counts may exceed it.
  const double slice = budget_s / 12.0;
  const CameraInputs& cam_a = inputs.cameras[0];  // depth-8 / fp32 side
  const CameraInputs& cam_b = inputs.cameras[1];  // full-depth / int8 side
  const std::size_t slots = cam_a.coded.size();
  const auto slot = [slots](int call) { return static_cast<std::size_t>(call) % slots; };
  constexpr int kTruncated = 8;

  // ce: the library encoder + exposure normalization, one clip per call.
  m["ce.encode_us"] = 1e6 * timed_calls("bench.ce_encode", slice, 20, [&](int call) {
                              const Tensor& clip = cam_a.clips[slot(call)];
                              const Tensor batched = Tensor::from_vector(
                                  clip.data(), Shape{1, clip.shape()[0], clip.shape()[1],
                                                     clip.shape()[2]});
                              (void)ce::normalize_by_exposure(
                                  ce::ce_encode(batched, *cam_a.pattern), *cam_a.pattern);
                            }).median_s();

  // codec: bit-plane coding of the quantized frames, truncated and full.
  std::vector<codec::QuantizedFrame> q_a;
  std::vector<codec::QuantizedFrame> q_b;
  for (std::size_t s = 0; s < slots; ++s) {
    q_a.push_back(codec::quantize_frame(cam_a.coded[s]));
    q_b.push_back(codec::quantize_frame(cam_b.coded[s]));
  }
  std::vector<codec::PlaneStream> s_a;
  std::vector<codec::PlaneStream> s_b;
  double bytes_a = 0.0;
  double bytes_b = 0.0;
  for (std::size_t s = 0; s < slots; ++s) {
    s_a.push_back(codec::encode_bitplanes(q_a[s], kTruncated));
    s_b.push_back(codec::encode_bitplanes(q_b[s], 0));
    bytes_a += static_cast<double>(s_a.back().payload_bytes());
    bytes_b += static_cast<double>(s_b.back().payload_bytes());
  }
  m["codec.bytes.d8"] = bytes_a / static_cast<double>(slots);
  m["codec.bytes.full"] = bytes_b / static_cast<double>(slots);
  m["codec.encode_us.d8"] = 1e6 * timed_calls("bench.codec_encode", slice / 2, 20, [&](int call) {
                                    (void)codec::encode_bitplanes(q_a[slot(call)], kTruncated);
                                  }).median_s();
  m["codec.encode_us.full"] = 1e6 * timed_calls("bench.codec_encode", slice / 2, 20, [&](int call) {
                                      (void)codec::encode_bitplanes(q_b[slot(call)], 0);
                                    }).median_s();
  m["codec.decode_us.d8"] = 1e6 * timed_calls("bench.codec_decode", slice / 2, 20, [&](int call) {
                                    (void)codec::decode_bitplanes(s_a[slot(call)], kTruncated);
                                  }).median_s();
  m["codec.decode_us.full"] = 1e6 * timed_calls("bench.codec_decode", slice / 2, 20, [&](int call) {
                                      (void)codec::decode_bitplanes(s_b[slot(call)], 0);
                                    }).median_s();

  // transport: one framed transfer over a clean entropy-coded link.
  for (const int planes : {kTruncated, 0}) {
    const CameraInputs& cam = planes == kTruncated ? cam_a : cam_b;
    const std::string tag = planes == kTruncated ? "d8" : "full";
    transport::LinkConfig config;
    config.codec = true;
    config.codec_planes = planes;
    transport::FramedLink link(config);
    double wire = 0.0;
    for (std::size_t s = 0; s < slots; ++s) {
      wire += static_cast<double>(
          link.transfer(cam.coded[s], static_cast<std::uint16_t>(s)).wire_bytes);
    }
    m["transport.wire_bytes." + tag] = wire / static_cast<double>(slots);
    m["transport.transfer_us." + tag] =
        1e6 * timed_calls("bench.transfer", slice / 2, 20, [&](int call) {
                (void)link.transfer(cam.coded[slot(call)], static_cast<std::uint16_t>(call));
              }).median_s();
  }

  // engines: build, calibrate, and serve at batch 1 and 8.
  const core::SnapPixSystem system(system_config(spec));
  m["engine.build_ms"] = 1e3 * timed_calls("bench.engine_build", slice, 3, [&](int) {
                                 (void)runtime::BatchedVitEngine(*system.classifier(),
                                                                 *system.reconstructor());
                               }).median_s();
  runtime::QuantSpec quant_spec;
  m["quant.calibrate_ms"] =
      1e3 * timed_calls("bench.calibrate", slice, 2, [&](int) {
              const Tensor frames = runtime::make_calibration_frames(
                  *cam_b.pattern, spec.image, spec.image, runtime::QuantCalibration{});
              quant_spec =
                  runtime::calibrate(*system.classifier(), *system.reconstructor(), frames);
            }).median_s();
  const runtime::BatchedVitEngine fp32(*system.classifier(), *system.reconstructor());
  const runtime::QuantizedVitEngine int8(*system.classifier(), *system.reconstructor(),
                                         quant_spec);
  constexpr std::int64_t kBatch = 8;
  const auto per_frame_us = [](const Timed& t, std::int64_t batch) {
    return 1e6 * t.median_s() / static_cast<double>(batch);
  };
  const auto stage_us = [](const Timed& t, const char* stage, std::int64_t batch) {
    const auto it = t.self_s.find(stage);
    const double total = it == t.self_s.end() ? 0.0 : it->second;
    return 1e6 * total / static_cast<double>(t.call_s.size() * static_cast<std::size_t>(batch));
  };
  // Batches start at every slot and are stacked before any timing starts.
  std::vector<Tensor> single_a, batch_a, batch_b;
  for (std::size_t s = 0; s < slots; ++s) {
    single_a.push_back(stack_frames(cam_a.expected_input, s, 1));
    batch_a.push_back(stack_frames(cam_a.expected_input, s, kBatch));
    batch_b.push_back(stack_frames(cam_b.expected_input, s, kBatch));
  }
  const Timed b1 = timed_calls("bench.fp32_classify_b1", slice, 10, [&](int call) {
    (void)fp32.classify_logits(single_a[slot(call)]);
  });
  const Timed b8 = timed_calls("bench.fp32_classify_b8", slice, 5, [&](int call) {
    (void)fp32.classify_logits(batch_a[slot(call)]);
  });
  const Timed rec8 = timed_calls("bench.fp32_reconstruct_b8", slice, 5, [&](int call) {
    (void)fp32.reconstruct(batch_b[slot(call)]);
  });
  const Timed q8 = timed_calls("bench.int8_classify_b8", slice, 5, [&](int call) {
    (void)int8.classify_logits(batch_b[slot(call)]);
  });
  m["engine.fp32.classify_us.b1"] = per_frame_us(b1, 1);
  m["engine.fp32.classify_us.b8"] = per_frame_us(b8, kBatch);
  m["engine.fp32.reconstruct_us.b8"] = per_frame_us(rec8, kBatch);
  m["engine.int8.classify_us.b8"] = per_frame_us(q8, kBatch);
  for (const char* stage : {"embed", "qkv", "attention", "proj", "mlp", "classify_head"}) {
    m[std::string("engine.stage.") + stage + "_us"] = stage_us(b8, stage, kBatch);
  }
  m["engine.stage.rec_decode_us"] = stage_us(rec8, "rec_decode", kBatch);
  for (const char* stage : {"quantize", "gemm_s8", "requant"}) {
    m[std::string("engine.stage.") + stage + "_us"] = stage_us(q8, stage, kBatch);
  }

  // tensor: the GEMM kernels at paper_mixed's qkv and fc1 shapes, batch 8.
  const std::int64_t rows = 196 * kBatch;
  const std::int64_t dim = 48;
  const std::int64_t shapes[2] = {3 * dim, 2 * dim};  // qkv, fc1 output widths
  Rng rng(seed ^ 0x6e6d6dULL);
  std::vector<float> a(static_cast<std::size_t>(rows * dim));
  std::vector<float> b(static_cast<std::size_t>(dim * shapes[0]));
  std::vector<float> c(static_cast<std::size_t>(rows * shapes[0]));
  std::vector<std::int8_t> a8(a.size());
  std::vector<std::int8_t> b8v(b.size());
  std::vector<std::int32_t> c32(c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform(-1.0F, 1.0F);
    a8[i] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = rng.uniform(-1.0F, 1.0F);
    b8v[i] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  const double ops = 2.0 * static_cast<double>(rows * dim * (shapes[0] + shapes[1]));
  const Timed gemm = timed_calls("bench.gemm_nn", slice, 20, [&](int) {
    for (const std::int64_t n : shapes) {
      std::memset(c.data(), 0, c.size() * sizeof(float));
      detail::gemm_nn(a.data(), b.data(), c.data(), rows, dim, n);
    }
  });
  const Timed gemm_s8 = timed_calls("bench.gemm_s8", slice, 20, [&](int) {
    for (const std::int64_t n : shapes) {
      detail::gemm_s8_nt(a8.data(), b8v.data(), c32.data(), rows, dim, n);
    }
  });
  m["tensor.gemm_nn_gflops"] = ops / gemm.median_s() * 1e-9;
  m["tensor.gemm_s8_gops"] = ops / gemm_s8.median_s() * 1e-9;
  return m;
}

}  // namespace perfbench
