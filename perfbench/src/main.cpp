// perfbench: end-to-end benchmark of the SnapPix serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 serves the workload in untraced rounds for --seconds and reports
// the end-to-end metrics; --trace 1 alternates untraced and traced rounds,
// then calls each layer directly, and reports the per-layer metrics. Both
// check every served result (see oracle.cpp). The last line of standard
// output is the JSON result; everything before it is the run report.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;
using snappix::runtime::RuntimeSummary;

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet_replay|paper_mixed|edge_paced> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
        have[3] = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have[0] || !have[1] || !have[2]) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(opt.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return opt;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"fps", "frames/s"},       {"cpu_ms_per_frame", "ms"}, {"e2e_mean_ms", "ms"},
    {"wire_bytes_per_frame", "B"}, {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"ce.encode_us", "us"},
    {"codec.encode_us.d8", "us"},
    {"codec.encode_us.full", "us"},
    {"codec.decode_us.d8", "us"},
    {"codec.decode_us.full", "us"},
    {"codec.bytes.d8", "B"},
    {"codec.bytes.full", "B"},
    {"transport.wire_bytes.d8", "B"},
    {"transport.wire_bytes.full", "B"},
    {"transport.transfer_us.d8", "us"},
    {"transport.transfer_us.full", "us"},
    {"runtime.capture_ms", "ms"},
    {"runtime.queue_wait_ms", "ms"},
    {"runtime.infer_ms_per_frame", "ms"},
    {"runtime.batch_size_mean", "frames"},
    {"runtime.flush.max_batch", "per_kframe"},
    {"runtime.flush.max_latency", "per_kframe"},
    {"runtime.flush.holdback", "per_kframe"},
    {"runtime.flush.steal", "per_kframe"},
    {"runtime.stolen_frames", "per_kframe"},
    {"runtime.steal_probes", "per_kframe"},
    {"runtime.steal_useful_ratio", "ratio"},
    {"runtime.cache_misses.fp32", "count"},
    {"runtime.cache_misses.int8", "count"},
    {"engine.fp32.classify_us.b1", "us"},
    {"engine.fp32.classify_us.b8", "us"},
    {"engine.fp32.reconstruct_us.b8", "us"},
    {"engine.int8.classify_us.b8", "us"},
    {"engine.build_ms", "ms"},
    {"quant.calibrate_ms", "ms"},
    {"engine.stage.embed_us", "us"},
    {"engine.stage.qkv_us", "us"},
    {"engine.stage.attention_us", "us"},
    {"engine.stage.proj_us", "us"},
    {"engine.stage.mlp_us", "us"},
    {"engine.stage.classify_head_us", "us"},
    {"engine.stage.rec_decode_us", "us"},
    {"engine.stage.quantize_us", "us"},
    {"engine.stage.gemm_s8_us", "us"},
    {"engine.stage.requant_us", "us"},
    {"tensor.gemm_nn_gflops", "GFLOP/s"},
    {"tensor.gemm_s8_gops", "GOP/s"},
    {"trace.e2e_p50_ms", "ms"},
    {"trace.e2e_p99_ms", "ms"},
    {"obs.trace_ns_per_frame", "ns"},
};

/// The traced rounds' spans must account for this share of their measured
/// CPU per frame. Spans are wall time, so preemption inside a span can push
/// the share above 1; idle polling and queue handoffs outside any span keep
/// it below.
constexpr double kAccountedMin = 0.70;
constexpr double kAccountedMax = 1.15;

/// Sums of the exact counters and histogram sums over several rounds.
struct Totals {
  int rounds = 0;
  double frames = 0, batches = 0;
  double capture_s = 0, queue_wait_s = 0, infer_s = 0;
  double sleep_s = 0, lateness_s = 0, lateness_max_s = 0;
  double flush_max_batch = 0, flush_max_latency = 0, flush_holdback = 0, flush_steal = 0;
  double stolen = 0, steal_attempts = 0, steal_successes = 0;
  double misses_fp32 = 0, misses_int8 = 0;
  double cpu_s = 0;

  void add(const RoundResult& r) {
    const RuntimeSummary& s = r.summary;
    const auto sum_s = [](const snappix::runtime::StageSummary& st) {
      return st.mean_ms * 1e-3 * static_cast<double>(st.count);  // exact: sum / count
    };
    ++rounds;
    frames += static_cast<double>(s.frames);
    batches += static_cast<double>(s.batches);
    capture_s += sum_s(s.capture);
    queue_wait_s += sum_s(s.queue_wait);
    infer_s += sum_s(s.inference);
    sleep_s += r.sleep_sum_s;
    lateness_s += r.lateness_sum_s;
    lateness_max_s = std::max(lateness_max_s, r.lateness_max_s);
    flush_max_batch += static_cast<double>(s.flush_max_batch);
    flush_max_latency += static_cast<double>(s.flush_max_latency);
    flush_holdback += static_cast<double>(s.flush_holdback);
    flush_steal += static_cast<double>(s.flush_steal);
    stolen += static_cast<double>(s.stolen_frames);
    steal_attempts += static_cast<double>(s.steal_attempts);
    steal_successes += static_cast<double>(s.steal_successes);
    misses_fp32 += static_cast<double>(s.cache_fp32.misses);
    misses_int8 += static_cast<double>(s.cache_int8.misses);
    cpu_s += r.cpu_s;
  }
  double per_kframe(double count) const { return frames > 0 ? 1000.0 * count / frames : 0.0; }
};

/// Exact e2e sum (capture start -> result) minus each frame's lead (due
/// time - capture call), per frame: every frame timed from its due time.
double e2e_mean_ms(const RoundResult& r) {
  const auto& e2e = r.summary.end_to_end;
  return (e2e.mean_ms * static_cast<double>(e2e.count) - 1e3 * r.lead_sum_s) /
         static_cast<double>(r.summary.frames);
}

/// Per-round figures whose medians are the end-to-end metrics.
struct Samples {
  std::vector<double> fps, cpu_ms, e2e_ms, wire, setup_s;

  void add(const RoundResult& r) {
    const double frames = static_cast<double>(r.summary.frames);
    fps.push_back(frames / r.wall_s);
    cpu_ms.push_back(1e3 * r.cpu_s / frames);
    e2e_ms.push_back(e2e_mean_ms(r));
    wire.push_back(static_cast<double>(r.summary.wire_bytes) / frames);
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
  }
};

void print_fingerprint(const WorkloadSpec& spec) {
  const unsigned nproc = std::thread::hardware_concurrency();
  __builtin_cpu_init();
  const int load_threads = static_cast<int>(spec.cameras.size()) + 2;
  std::printf("machine: nproc %u, avx2 %s, avx512_vnni %s\n", nproc,
              __builtin_cpu_supports("avx2") ? "yes" : "no",
              __builtin_cpu_supports("avx512vnni") ? "yes" : "no");
  std::printf("compiler: g++ %s, flags %s\n", __VERSION__, PERFBENCH_CXX_FLAGS);
  std::printf("load threads: %zu camera producers + 2 shard workers = %d (nproc %u): %s\n",
              spec.cameras.size(), load_threads, nproc,
              load_threads <= static_cast<int>(nproc) ? "within budget" : "OVER BUDGET");
}

void print_workload(const WorkloadSpec& spec, const Options& opt, double input_s) {
  std::printf("workload %s: %dx%d, T=%d, %d classes, seed %llu, %s, %lld frames/camera/round\n",
              spec.name.c_str(), spec.image, spec.image, spec.frames, spec.classes,
              static_cast<unsigned long long>(opt.seed),
              spec.paced ? "open loop" : "closed loop",
              static_cast<long long>(spec.frames_per_camera));
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    const CameraSpec& cs = spec.cameras[c];
    std::printf("  camera %zu: %s %s%s", c, snappix::runtime::to_string(cs.task),
                snappix::runtime::to_string(cs.precision),
                spec.paced ? ", entropy-coded CSI-2 link" : ", in-memory replay");
    if (spec.paced) {
      std::printf(", depth %s, %.0f fps offered",
                  cs.codec_planes > 0 ? std::to_string(cs.codec_planes).c_str() : "full",
                  spec.rate_hz);
    }
    std::printf("\n");
  }
  std::printf("  inputs generated in %.3f s (%d slots per camera)\n", input_s, spec.slots);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  WorkloadSpec spec;
  try {
    spec = workload_spec(opt.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  std::string error;
  const auto fail = [&error](const std::string& what) {
    if (!what.empty() && error.empty()) {
      error = what;
    }
  };
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t served = 0;
  try {
    print_fingerprint(spec);
    const Clock::time_point input_start = Clock::now();
    const Inputs inputs = make_inputs(spec, opt.seed);
    print_workload(spec, opt, seconds_since(input_start));

    Ledger ledger = make_ledger(spec);
    Totals untraced;
    Totals traced;
    Samples samples;
    std::vector<double> traced_cpu_ms;
    std::vector<double> untraced_cpu_ms;
    std::vector<double> trace_e2e_s;
    std::map<std::string, double> trace_self_s;
    double trace_capture_busy_s = 0.0;
    double trace_cache_resolve_s = 0.0;
    double traced_wall_s = 0.0;
    std::size_t trace_events = 0;
    std::size_t trace_dropped = 0;

    const auto serve = [&](bool trace_round) {
      RoundResult r = run_round(spec, inputs, trace_round);
      attempted += static_cast<std::uint64_t>(spec.frames_per_camera) * spec.cameras.size();
      served += r.results.size();
      // The later checks index inputs by camera and sequence, which only a
      // conserved set of results makes safe.
      const std::string conservation = check_conservation(spec, inputs, r.results);
      fail(conservation);
      if (conservation.empty()) {
        fail(fold_repeats(spec, r.results, ledger));
        fail(check_wire_bytes(spec, inputs, r.results, r.summary.wire_bytes));
      }
      return r;
    };

    // One unmeasured round first: page faults, allocator growth and first
    // thread start-ups land there. Its outputs also feed the self-tests of
    // the per-round checks; no round's results outlive the round after it.
    double rss_mb = 0.0;
    {
      const RoundResult warmup = serve(false);
      // Peak memory of one server's whole life, inputs included, read as its
      // run() returns: later rounds rebuild the server, which a deployment
      // would not, so their allocator history is left out.
      rss_mb = warmup.peak_rss_mb;
      // The self-tests corrupt real output that passed: they need a round
      // whose own checks passed, and index its results as those checks do.
      if (error.empty()) {
        const std::string self_test = self_test_result_checks(
            spec, inputs, warmup.results, warmup.summary.wire_bytes, ledger);
        fail(self_test.empty() ? "" : "self-test: " + self_test);
      }
    }
    const Clock::time_point measure_start = Clock::now();
    const double serve_budget_s = opt.trace ? 0.6 * opt.seconds : opt.seconds;
    for (int i = 0; i < 2 || seconds_since(measure_start) < serve_budget_s; ++i) {
      // Traced rounds go first, so a short budget still yields as many
      // traced frames (the percentile samples) as untraced ones.
      const bool trace_round = opt.trace && i % 2 == 0;
      const RoundResult r = serve(trace_round);
      const double cpu_ms = 1e3 * r.cpu_s / static_cast<double>(r.summary.frames);
      if (trace_round) {
        traced.add(r);
        traced_cpu_ms.push_back(cpu_ms);
        trace_e2e_s.insert(trace_e2e_s.end(), r.trace.e2e_s.begin(), r.trace.e2e_s.end());
        for (const auto& [name, s] : r.trace.self_s) {
          trace_self_s[name] += s;
        }
        trace_capture_busy_s += r.trace.capture_busy_s;
        trace_cache_resolve_s += r.trace.cache_resolve_s;
        traced_wall_s += r.wall_s;
        trace_events += r.trace.events;
        trace_dropped += r.trace.dropped;
        if (r.trace.frames != r.summary.frames) {
          fail("traced round has " + std::to_string(r.trace.frames) +
               " frame lifecycles for " + std::to_string(r.summary.frames) + " frames");
        }
      } else {
        untraced.add(r);
        untraced_cpu_ms.push_back(cpu_ms);
        samples.add(r);
      }
      std::printf("round %d%s: fps %.1f, cpu %.4f ms/frame, e2e %.4f ms, mean batch %.2f, "
                  "stolen %llu, cache misses fp32 %llu int8 %llu\n",
                  i, trace_round ? " (traced)" : "",
                  static_cast<double>(r.summary.frames) / r.wall_s, cpu_ms, e2e_mean_ms(r),
                  r.summary.mean_batch_size,
                  static_cast<unsigned long long>(r.summary.stolen_frames),
                  static_cast<unsigned long long>(r.summary.cache_fp32.misses),
                  static_cast<unsigned long long>(r.summary.cache_int8.misses));
    }
    const double measured_s = seconds_since(measure_start);

    std::map<std::string, double> layers;
    if (opt.trace) {
      layers = measure_layers(spec, inputs, 0.4 * opt.seconds, opt.seed);
    }

    // Correctness: references from the tape framework on inputs the
    // benchmark coded itself, then the self-tests of every check.
    const References refs = compute_references(spec, inputs);
    const ReferenceCheck ref_check = check_references(spec, ledger, refs);
    fail(ref_check.error);
    if (error.empty()) {
      const std::string self_test = self_test_reference_check(spec, ledger, refs);
      fail(self_test.empty() ? "" : "self-test: " + self_test);
    }

    // --- report -----------------------------------------------------------------
    const Totals& u = untraced;
    std::printf("rounds: %d measured untraced%s in %.2f s, plus 1 warm-up\n", u.rounds,
                opt.trace ? (" + " + std::to_string(traced.rounds) + " traced").c_str() : "",
                measured_s);
    std::printf("frames: attempted %llu, served %llu, failed %llu (%s)\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(served),
                static_cast<unsigned long long>(attempted - served),
                attempted == served ? "conserved" : "NOT conserved");
    if (spec.paced) {
      const double paced_frames = u.frames + traced.frames;
      std::printf("generator lateness vs schedule: mean %.4f ms, max %.4f ms\n",
                  1e3 * (u.lateness_s + traced.lateness_s) / paced_frames,
                  1e3 * std::max(u.lateness_max_s, traced.lateness_max_s));
    }
    std::printf("checks (conservation, repeat identity, tape reference with fp32 bit-exact%s, "
                "wire bytes vs CSI-2 layout, self-tests): %s\n",
                spec.cameras[1].precision == snappix::runtime::Precision::kInt8
                    ? (", int8 top-1 agreement " + json_number(ref_check.int8_agreement)).c_str()
                    : "",
                error.empty() ? "pass" : ("FAIL: " + error).c_str());

    if (!opt.trace) {
      metrics["fps"] = median(samples.fps);
      metrics["cpu_ms_per_frame"] = median(samples.cpu_ms);
      metrics["e2e_mean_ms"] = median(samples.e2e_ms);
      metrics["wire_bytes_per_frame"] = median(samples.wire);
      metrics["setup_s"] = median(samples.setup_s);
      metrics["peak_rss_mb"] = rss_mb;
      std::printf("medians over rounds: fps %.1f, cpu %.4f ms/frame, e2e %.4f ms, "
                  "wire %.1f B/frame, setup %.6f s (%zu set-ups); peak rss %.2f MB\n",
                  metrics["fps"], metrics["cpu_ms_per_frame"], metrics["e2e_mean_ms"],
                  metrics["wire_bytes_per_frame"], metrics["setup_s"], samples.setup_s.size(),
                  metrics["peak_rss_mb"]);
    } else {
      const double f = u.frames;
      metrics = layers;
      metrics["runtime.capture_ms"] = 1e3 * (u.capture_s - u.sleep_s) / f;
      metrics["runtime.queue_wait_ms"] = 1e3 * u.queue_wait_s / f;
      metrics["runtime.infer_ms_per_frame"] = 1e3 * u.infer_s / f;
      metrics["runtime.batch_size_mean"] = f / u.batches;
      metrics["runtime.flush.max_batch"] = u.per_kframe(u.flush_max_batch);
      metrics["runtime.flush.max_latency"] = u.per_kframe(u.flush_max_latency);
      metrics["runtime.flush.holdback"] = u.per_kframe(u.flush_holdback);
      metrics["runtime.flush.steal"] = u.per_kframe(u.flush_steal);
      metrics["runtime.stolen_frames"] = u.per_kframe(u.stolen);
      metrics["runtime.steal_probes"] = u.per_kframe(u.steal_attempts);
      metrics["runtime.steal_useful_ratio"] =
          u.steal_attempts > 0 ? u.steal_successes / u.steal_attempts : 0.0;
      metrics["runtime.cache_misses.fp32"] = u.misses_fp32 / u.rounds;
      metrics["runtime.cache_misses.int8"] = u.misses_int8 / u.rounds;
      metrics["trace.e2e_p50_ms"] = 1e3 * percentile(trace_e2e_s, 50.0);
      metrics["trace.e2e_p99_ms"] = 1e3 * percentile(trace_e2e_s, 99.0);
      metrics["obs.trace_ns_per_frame"] =
          1e6 * (median(traced_cpu_ms) - median(untraced_cpu_ms));
      if (trace_dropped != 0) {
        fail("traced rounds dropped " + std::to_string(trace_dropped) + " trace events");
      }

      // Where the traced rounds' CPU went, per frame: producer-side capture
      // (pacing sleep removed) plus the self time of every span on the shard
      // lanes. What no span covers (idle polling, steal probes, queue
      // handoffs outside serve_batch) is the remainder.
      const double tf = traced.frames;
      const double measured_ms = 1e3 * traced.cpu_s / tf;
      double accounted_ms = 1e3 * trace_capture_busy_s / tf;
      std::printf("trace: %zu events, %zu dropped, %zu frame lifecycles over %d rounds\n",
                  trace_events, trace_dropped, trace_e2e_s.size(), traced.rounds);
      std::printf("cpu per frame in traced rounds: %.4f ms\n", measured_ms);
      std::printf("  %-16s %10.4f ms\n", "capture", 1e3 * trace_capture_busy_s / tf);
      for (const auto& [name, s] : trace_self_s) {
        std::printf("  %-16s %10.4f ms\n", name.c_str(), 1e3 * s / tf);
        accounted_ms += 1e3 * s / tf;
      }
      // Each round's fresh server builds (and, for int8, calibrates) its
      // engines lazily inside run(): the cache_resolve spans, children
      // included, as a share of run() wall time.
      std::printf("engine cache resolution inside run(): %.2f ms per round, %.2f%% of run() "
                  "wall time\n",
                  1e3 * trace_cache_resolve_s / traced.rounds,
                  100.0 * trace_cache_resolve_s / traced_wall_s);
      const double share = accounted_ms / measured_ms;
      std::printf("  %-16s %10.4f ms (spans account for %.1f%% of cpu; tolerance %.0f-%.0f%%)\n",
                  "unaccounted", measured_ms - accounted_ms, 100.0 * share,
                  100.0 * kAccountedMin, 100.0 * kAccountedMax);
      if (!(share >= kAccountedMin && share <= kAccountedMax)) {
        fail("trace spans account for " + json_number(share) +
             " of the measured cpu per frame, outside the tolerance");
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("exception: ") + e.what());
  }

  // --- result line ------------------------------------------------------------------
  std::string out = "{\"correct\": ";
  out += error.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(attempted - served);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : opt.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                                 std::end(kPerLayer))
                                        : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                                 std::end(kEndToEnd))) {
    const auto it = metrics.find(def.name);
    if (it == metrics.end()) {
      continue;
    }
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(def.name) + "\": {\"value\": " + json_number(it->second) +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return error.empty() ? 0 : 1;
}
