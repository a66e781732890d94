// Correctness oracles: references computed apart from the serving path, the
// checks that compare served results with them, and the self-tests showing
// each check fails on a corrupted result.
#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "bench.h"
#include "codec/bitplane.h"

namespace perfbench {

using namespace snappix;

// --- reference models -------------------------------------------------------------

Tensor plain_ce_encode(const Tensor& clip, const ce::CePattern& pattern) {
  const std::int64_t slots = clip.shape()[0];
  const std::int64_t h = clip.shape()[1];
  const std::int64_t w = clip.shape()[2];
  const int tile = pattern.tile();
  const std::vector<float>& px = clip.data();
  std::vector<float> coded(static_cast<std::size_t>(h * w), 0.0F);
  for (std::int64_t t = 0; t < slots; ++t) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        const float exposed =
            pattern.bit(static_cast<int>(t), static_cast<int>(y % tile), static_cast<int>(x % tile))
                ? 1.0F
                : 0.0F;
        coded[static_cast<std::size_t>(y * w + x)] +=
            exposed * px[static_cast<std::size_t>((t * h + y) * w + x)];
      }
    }
  }
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      int count = 0;
      for (std::int64_t t = 0; t < slots; ++t) {
        count += pattern.bit(static_cast<int>(t), static_cast<int>(y % tile),
                             static_cast<int>(x % tile))
                     ? 1
                     : 0;
      }
      const float inv = count > 0 ? 1.0F / static_cast<float>(count) : 0.0F;
      coded[static_cast<std::size_t>(y * w + x)] *= inv;
    }
  }
  return Tensor::from_vector(std::move(coded), Shape{h, w});
}

namespace {

codec::QuantizedFrame quantize_int16(const Tensor& coded) {
  codec::QuantizedFrame frame;
  frame.height = coded.shape()[0];
  frame.width = coded.shape()[1];
  float max_abs = 0.0F;
  for (const float x : coded.data()) {
    max_abs = std::max(max_abs, std::fabs(x));
  }
  frame.values.assign(coded.data().size(), 0);
  if (max_abs == 0.0F) {
    return frame;
  }
  frame.scale = max_abs / 32767.0F;
  for (std::size_t i = 0; i < frame.values.size(); ++i) {
    const long q = std::lround(coded.data()[i] / frame.scale);
    frame.values[i] = static_cast<std::int16_t>(std::clamp(q, -32767L, 32767L));
  }
  return frame;
}

}  // namespace

Tensor wire_view(const Tensor& coded, int planes) {
  const codec::QuantizedFrame frame = quantize_int16(coded);
  int depth = 0;
  for (const std::int16_t q : frame.values) {
    int mag = q < 0 ? -q : q;
    int bits = 0;
    while (mag != 0) {
      ++bits;
      mag >>= 1;
    }
    depth = std::max(depth, bits);
  }
  const int dropped = planes > 0 && planes < depth ? depth - planes : 0;
  const int keep_mask = ~((1 << dropped) - 1);
  std::vector<float> out(frame.values.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int q = frame.values[i];
    const int mag = (q < 0 ? -q : q) & keep_mask;
    out[i] = static_cast<float>(static_cast<std::int16_t>(q < 0 ? -mag : mag)) * frame.scale;
  }
  return Tensor::from_vector(std::move(out), coded.shape());
}

std::uint64_t csi2_codec_wire_bytes(const Tensor& coded, int planes) {
  constexpr std::uint64_t kShort = 4;      // DI + 16-bit value + ECC
  constexpr std::uint64_t kLongFrame = 6;  // 4 B header + 2 B CRC around the payload
  const codec::PlaneStream stream = codec::encode_bitplanes(quantize_int16(coded), planes);
  std::uint64_t bytes = 2 * kShort + kLongFrame + codec::kStreamHeaderBytes;
  for (const std::vector<std::uint8_t>& chunk : stream.planes) {
    bytes += kLongFrame + 1 + chunk.size();
  }
  return bytes;
}

std::uint64_t csi2_raw_wire_bytes(std::int64_t height, std::int64_t width) {
  return static_cast<std::uint64_t>(8 + height * (6 + 4 * width));
}

// --- checks -----------------------------------------------------------------------

namespace {

int expected_depth(const WorkloadSpec& spec, const CameraSpec& cs) {
  return spec.paced && cs.task == runtime::Task::kClassify ? cs.codec_planes : 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

Ledger make_ledger(const WorkloadSpec& spec) {
  Ledger ledger;
  ledger.label.assign(spec.cameras.size(),
                      std::vector<std::int64_t>(static_cast<std::size_t>(spec.slots), -1));
  ledger.video.assign(spec.cameras.size(),
                      std::vector<std::vector<float>>(static_cast<std::size_t>(spec.slots)));
  return ledger;
}

std::string check_conservation(const WorkloadSpec& spec, const Inputs& inputs,
                               const std::vector<runtime::TaskResult>& results) {
  std::ostringstream err;
  const std::size_t cams = spec.cameras.size();
  const std::size_t per_camera = static_cast<std::size_t>(spec.frames_per_camera);
  if (results.size() != cams * per_camera) {
    err << "served " << results.size() << " of " << cams * per_camera << " frames";
    return err.str();
  }
  std::vector<std::vector<bool>> seen(cams, std::vector<bool>(per_camera, false));
  for (const runtime::TaskResult& r : results) {
    if (r.camera_id < 0 || static_cast<std::size_t>(r.camera_id) >= cams || r.sequence < 0 ||
        static_cast<std::size_t>(r.sequence) >= per_camera) {
      err << "result for unknown frame camera " << r.camera_id << " sequence " << r.sequence;
      return err.str();
    }
    const std::size_t c = static_cast<std::size_t>(r.camera_id);
    const std::size_t seq = static_cast<std::size_t>(r.sequence);
    if (seen[c][seq]) {
      err << "frame camera " << c << " sequence " << seq << " served twice";
      return err.str();
    }
    seen[c][seq] = true;
    const CameraSpec& cs = spec.cameras[c];
    const std::size_t slot = seq % static_cast<std::size_t>(spec.slots);
    if (r.task != cs.task || r.precision != cs.precision ||
        r.decode_depth != expected_depth(spec, cs) ||
        r.label != inputs.cameras[c].labels[slot] ||
        r.pattern_id != inputs.cameras[c].pattern->hash()) {
      err << "frame camera " << c << " sequence " << seq
          << " served with the wrong task, precision, depth, label or pattern";
      return err.str();
    }
  }
  return "";
}

std::string fold_repeats(const WorkloadSpec& spec, const std::vector<runtime::TaskResult>& results,
                         Ledger& ledger) {
  for (const runtime::TaskResult& r : results) {
    const std::size_t c = static_cast<std::size_t>(r.camera_id);
    const std::size_t slot = static_cast<std::size_t>(r.sequence % spec.slots);
    if (r.task == runtime::Task::kClassify) {
      std::int64_t& first = ledger.label[c][slot];
      if (first < 0) {
        first = r.predicted;
      } else if (first != r.predicted) {
        std::ostringstream err;
        err << "camera " << c << " slot " << slot << " answered " << r.predicted
            << " after answering " << first;
        return err.str();
      }
    } else {
      std::vector<float>& first = ledger.video[c][slot];
      if (first.empty()) {
        first = r.reconstruction.data();
      } else if (!same_bits(first, r.reconstruction.data())) {
        std::ostringstream err;
        err << "camera " << c << " slot " << slot << " reconstruction changed between repeats";
        return err.str();
      }
    }
  }
  return "";
}

std::vector<std::uint64_t> full_depth_wire_bytes(const CameraInputs& cam) {
  std::vector<std::uint64_t> bytes;
  for (const Tensor& coded : cam.coded) {
    bytes.push_back(csi2_codec_wire_bytes(coded, 0));
  }
  return bytes;
}

std::string check_wire_order(const std::vector<std::uint64_t>& truncated,
                             const std::vector<std::uint64_t>& full, std::uint64_t raw) {
  for (std::size_t s = 0; s < truncated.size(); ++s) {
    if (!(s < full.size() && truncated[s] < full[s] && full[s] < raw)) {
      std::ostringstream err;
      err << "slot " << s << " wire bytes not ordered: truncated " << truncated[s] << ", full "
          << (s < full.size() ? full[s] : 0) << ", raw " << raw;
      return err.str();
    }
  }
  return "";
}

std::string check_wire_bytes(const WorkloadSpec& spec, const Inputs& inputs,
                             const std::vector<runtime::TaskResult>& results,
                             std::uint64_t wire_bytes) {
  std::uint64_t expected = 0;
  for (const runtime::TaskResult& r : results) {
    const auto& cam = inputs.cameras[static_cast<std::size_t>(r.camera_id)];
    expected += cam.expected_wire_bytes[static_cast<std::size_t>(r.sequence % spec.slots)];
  }
  if (wire_bytes != expected) {
    std::ostringstream err;
    err << "wire bytes " << wire_bytes << " != " << expected << " from the packet layout";
    return err.str();
  }
  if (spec.paced) {
    // Truncated (camera 0's depth) < full depth < raw float32 rows, slot by slot.
    const CameraInputs& cam = inputs.cameras[0];
    return check_wire_order(cam.expected_wire_bytes, full_depth_wire_bytes(cam),
                            csi2_raw_wire_bytes(spec.image, spec.image));
  }
  return "";
}

References compute_references(const WorkloadSpec& spec, const Inputs& inputs) {
  NoGradGuard guard;
  // A fresh system with the served model's seed: the tape framework, not the
  // fused engines, computes every reference.
  const core::SnapPixSystem system(system_config(spec));
  References refs;
  const std::int64_t hw = static_cast<std::int64_t>(spec.image) * spec.image;
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    const CameraInputs& cam = inputs.cameras[c];
    std::vector<float> stacked;
    for (const Tensor& t : cam.expected_input) {
      stacked.insert(stacked.end(), t.data().begin(), t.data().end());
    }
    const Tensor batch = Tensor::from_vector(
        std::move(stacked), Shape{static_cast<std::int64_t>(cam.expected_input.size()),
                                  spec.image, spec.image});
    refs.label.push_back(argmax_last_axis(system.classify_logits_coded(batch)));
    std::vector<Tensor> videos;
    if (spec.cameras[c].task == runtime::Task::kReconstruct) {
      const Tensor video = system.reconstruct_coded(batch);
      const std::int64_t per = spec.frames * hw;
      for (std::int64_t s = 0; s < batch.shape()[0]; ++s) {
        const auto begin = video.data().begin() + s * per;
        videos.push_back(Tensor::from_vector(std::vector<float>(begin, begin + per),
                                             Shape{spec.frames, spec.image, spec.image}));
      }
    }
    refs.video.push_back(std::move(videos));
  }
  return refs;
}

ReferenceCheck check_references(const WorkloadSpec& spec, const Ledger& ledger,
                                const References& refs) {
  ReferenceCheck out;
  std::ostringstream err;
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    const CameraSpec& cs = spec.cameras[c];
    std::size_t agree = 0;
    for (std::size_t s = 0; s < static_cast<std::size_t>(spec.slots); ++s) {
      if (cs.task == runtime::Task::kReconstruct) {
        if (!same_bits(ledger.video[c][s], refs.video[c][s].data())) {
          err << "camera " << c << " slot " << s
              << " reconstruction differs from the tape reference";
          out.error = err.str();
          return out;
        }
        continue;
      }
      const std::int64_t served = ledger.label[c][s];
      if (served < 0) {
        err << "camera " << c << " slot " << s << " never served";
        out.error = err.str();
        return out;
      }
      if (cs.precision == runtime::Precision::kInt8) {
        agree += served == refs.label[c][s] ? 1 : 0;
      } else if (served != refs.label[c][s]) {
        err << "camera " << c << " slot " << s << " top-1 " << served
            << " differs from the tape reference " << refs.label[c][s];
        out.error = err.str();
        return out;
      }
    }
    if (cs.precision == runtime::Precision::kInt8) {
      out.int8_agreement = static_cast<double>(agree) / static_cast<double>(spec.slots);
      if (out.int8_agreement < kInt8MinAgreement) {
        err << "camera " << c << " int8 top-1 agrees with fp32 on " << agree << "/"
            << spec.slots << " slots, below " << kInt8MinAgreement;
        out.error = err.str();
        return out;
      }
    }
  }
  return out;
}

namespace {

// Collects the names of checks that passed a corrupted input.
struct SelfTest {
  std::ostringstream err;
  void expect_failure(const std::string& verdict, const char* what) {
    if (verdict.empty()) {
      err << what << " passed a corrupted result; ";
    }
  }
};

}  // namespace

std::string self_test_result_checks(const WorkloadSpec& spec, const Inputs& inputs,
                                    const std::vector<runtime::TaskResult>& results,
                                    std::uint64_t wire_bytes, const Ledger& ledger) {
  SelfTest t;
  std::vector<runtime::TaskResult> lost(results.begin(), results.end() - 1);
  t.expect_failure(check_conservation(spec, inputs, lost), "conservation (lost frame)");
  std::vector<runtime::TaskResult> twice = results;
  twice.back().camera_id = twice.front().camera_id;
  twice.back().sequence = twice.front().sequence;
  t.expect_failure(check_conservation(spec, inputs, twice), "conservation (duplicate frame)");
  // One result served with each field wrong in turn.
  const auto with_field = [&](const char* what, auto corrupt) {
    std::vector<runtime::TaskResult> bad = results;
    corrupt(bad.back());
    t.expect_failure(check_conservation(spec, inputs, bad), what);
  };
  with_field("conservation (task)", [](runtime::TaskResult& r) {
    r.task = r.task == runtime::Task::kClassify ? runtime::Task::kReconstruct
                                                : runtime::Task::kClassify;
  });
  with_field("conservation (precision)", [](runtime::TaskResult& r) {
    r.precision = r.precision == runtime::Precision::kFp32 ? runtime::Precision::kInt8
                                                           : runtime::Precision::kFp32;
  });
  with_field("conservation (decode depth)", [](runtime::TaskResult& r) { r.decode_depth += 1; });
  with_field("conservation (label)", [&spec](runtime::TaskResult& r) {
    r.label = (r.label + 1) % spec.classes;
  });
  with_field("conservation (pattern)", [](runtime::TaskResult& r) { r.pattern_id += 1; });

  for (std::size_t i = 0; i < results.size(); ++i) {
    // One corrupted repeat per task kind present.
    const runtime::TaskResult& r = results[i];
    if (i != 0 && results[i - 1].task == r.task) {
      continue;
    }
    std::vector<runtime::TaskResult> bad{r};
    if (r.task == runtime::Task::kClassify) {
      bad[0].predicted = (r.predicted + 1) % spec.classes;
    } else {
      std::vector<float> video = r.reconstruction.data();
      video[0] = std::nextafter(video[0], 1e30F);
      bad[0].reconstruction = Tensor::from_vector(std::move(video), r.reconstruction.shape());
    }
    Ledger copy = ledger;
    t.expect_failure(fold_repeats(spec, bad, copy), "repeat consistency");
  }
  t.expect_failure(check_wire_bytes(spec, inputs, results, wire_bytes + 1), "wire bytes");
  if (spec.paced) {
    // The ordering check on the depth and full-depth tables swapped.
    const CameraInputs& cam = inputs.cameras[0];
    t.expect_failure(check_wire_order(full_depth_wire_bytes(cam), cam.expected_wire_bytes,
                                      csi2_raw_wire_bytes(spec.image, spec.image)),
                     "wire byte order");
  }
  return t.err.str();
}

std::string self_test_reference_check(const WorkloadSpec& spec, const Ledger& ledger,
                                      const References& refs) {
  SelfTest t;
  for (std::size_t c = 0; c < spec.cameras.size(); ++c) {
    Ledger copy = ledger;
    if (spec.cameras[c].task == runtime::Task::kReconstruct) {
      float& v = copy.video[c][0][0];
      v = std::nextafter(v, 1e30F);
    } else if (spec.cameras[c].precision == runtime::Precision::kInt8) {
      for (std::size_t s = 0; s < copy.label[c].size(); ++s) {
        copy.label[c][s] = (refs.label[c][s] + 1) % spec.classes;
      }
    } else {
      copy.label[c][0] = (copy.label[c][0] + 1) % spec.classes;
    }
    t.expect_failure(check_references(spec, copy, refs).error, "reference check");
  }
  return t.err.str();
}

}  // namespace perfbench
