#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

struct OpInfo {
  std::string_view name;
  Layer layer;
};

constexpr std::array<OpInfo, kOpCount> kOps = {{
    {"core.session", Layer::kCore},
    {"dataset.materialize", Layer::kDataset},
    {"chunk.split_wfc", Layer::kChunk},
    {"chunk.split_sc", Layer::kChunk},
    {"chunk.split_cdc", Layer::kChunk},
    {"hash.fingerprint_rabin96", Layer::kHash},
    {"hash.fingerprint_md5", Layer::kHash},
    {"hash.fingerprint_sha1", Layer::kHash},
    {"hash.tiny_tag", Layer::kHash},
    {"index.lookup_batch", Layer::kIndex},
    {"index.insert", Layer::kIndex},
    {"index.checkpoint", Layer::kIndex},
    {"index.restore", Layer::kIndex},
    {"container.store", Layer::kContainer},
    {"container.flush", Layer::kContainer},
    {"container.parse", Layer::kContainer},
    {"upload.enqueue", Layer::kUpload},
    {"upload.finish", Layer::kUpload},
    {"cloud.upload", Layer::kCloud},
    {"cloud.download", Layer::kCloud},
    {"recipe.serialize", Layer::kRecipe},
    {"recipe.deserialize", Layer::kRecipe},
    {"restore.bootstrap", Layer::kRestore},
    {"restore.file", Layer::kRestore},
}};

constexpr std::array<std::string_view, kLayerCount> kLayers = {
    "core",      "dataset", "chunk", "hash",   "index",
    "container", "upload",  "cloud", "recipe", "restore"};

Phase phase_of_root(Op op) noexcept {
  return op == Op::kBootstrap || op == Op::kRestoreFile ? Phase::kRestore
                                                        : Phase::kBackup;
}

void summarize_track(const Track& track, SpanSummary& out) {
  const std::size_t n = track.spans.size();
  std::vector<double> child_s(n, 0.0);
  std::vector<Phase> phase(n, Phase::kBackup);
  // Parents precede children (a span is appended when it opens), so one
  // forward pass resolves each span's phase from its root...
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = track.spans[i];
    phase[i] = span.parent == kNoParent ? phase_of_root(span.op)
                                        : phase[span.parent];
    if (span.parent != kNoParent) {
      child_s[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  // ...and child coverage is complete before self time is taken.
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = track.spans[i];
    const auto op = static_cast<std::size_t>(span.op);
    const double duration =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    const double self = duration - child_s[i];
    out.total_s[op] += duration;
    out.self_s[op] += self;
    out.layer_self_s[static_cast<std::size_t>(phase[i])]
                    [static_cast<std::size_t>(kOps[op].layer)] += self;
  }
}

}  // namespace

std::string_view layer_name(Layer layer) noexcept {
  return kLayers[static_cast<std::size_t>(layer)];
}

std::string_view op_name(Op op) noexcept {
  return kOps[static_cast<std::size_t>(op)].name;
}

Layer layer_of(Op op) noexcept {
  return kOps[static_cast<std::size_t>(op)].layer;
}

SpanRecorder::SpanRecorder() {
  main_.name = "main";
  uploader_.name = "uploader";
  main_.epoch = uploader_.epoch = std::chrono::steady_clock::now();
}

void SpanRecorder::clear() {
  for (Track* track : {&main_, &uploader_}) {
    track->spans.clear();
    track->open.clear();
  }
}

bool SpanRecorder::write_tsv(const std::string& path,
                             const std::vector<std::string>& header_lines)
    const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const std::string& line : header_lines) {
    std::fprintf(out, "# %s\n", line.c_str());
  }
  std::fprintf(out, "track\tindex\tparent\tname\tlayer\tfile\tstart_ns\tend_ns\n");
  for (const Track* track : {&main_, &uploader_}) {
    for (std::size_t i = 0; i < track->spans.size(); ++i) {
      const Span& span = track->spans[i];
      const long long parent =
          span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
      std::fprintf(out, "%s\t%zu\t%lld\t%.*s\t%.*s\t%llu\t%lld\t%lld\n",
                   track->name.c_str(), i, parent,
                   static_cast<int>(op_name(span.op).size()),
                   op_name(span.op).data(),
                   static_cast<int>(layer_name(layer_of(span.op)).size()),
                   layer_name(layer_of(span.op)).data(),
                   static_cast<unsigned long long>(span.file),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

double SpanSummary::layer_self(Layer layer) const {
  double total = 0.0;
  for (const auto& phase : layer_self_s) {
    total += phase[static_cast<std::size_t>(layer)];
  }
  return total;
}

double SpanSummary::phase_self(Phase phase) const {
  double total = 0.0;
  for (const double s : layer_self_s[static_cast<std::size_t>(phase)]) {
    total += s;
  }
  return total;
}

SpanSummary summarize(const SpanRecorder& recorder) {
  SpanSummary out;
  summarize_track(recorder.main(), out);
  summarize_track(recorder.uploader(), out);
  return out;
}

}  // namespace perfbench
