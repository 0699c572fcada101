// In-memory span recorder for the benchmark's traced replay.
//
// A span brackets one call into a library layer: which operation, when it
// started and ended, the enclosing span on the same track, and the file it
// worked on. Spans are appended to per-track vectors (one track per thread:
// the replay's main thread and the upload pipeline's uploader thread), so
// recording takes no lock. Nothing is written until the run ends.
//
// Self time of a span is its duration minus the time its direct children
// cover. Children on one track never overlap, so the coverage is the sum of
// their durations.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Library layers, named after the src/ subsystems the spans call into.
/// kCore is the replay's own session loop (routing files to streams,
/// assembling recipes); kRestore is reassembling file bytes from chunks.
enum class Layer : std::uint8_t {
  kCore,
  kDataset,
  kChunk,
  kHash,
  kIndex,
  kContainer,
  kUpload,
  kCloud,
  kRecipe,
  kRestore,
};
inline constexpr std::size_t kLayerCount = 10;

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

/// One public library call (or replay step) a span can bracket.
enum class Op : std::uint8_t {
  kSession,            // core: one weekly backup session (root)
  kMaterialize,        // dataset::materialize_into
  kSplitWfc,           // DedupPolicy::for_kind + Chunker::split, WFC
  kSplitSc,            // ... static chunking
  kSplitCdc,           // ... content-defined chunking
  kHashRabin96,        // core::fingerprint_chunks, Rabin-96 batch
  kHashMd5,            // ... MD5 batch
  kHashSha1,           // ... SHA-1 batch
  kTinyTag,            // Rabin96::hash of a tiny file's bytes
  kLookupBatch,        // ChunkIndex::lookup_batch
  kInsert,             // ChunkIndex::insert
  kCheckpoint,         // PartitionedIndex::checkpoint
  kIndexRestore,       // PartitionedIndex::restore
  kStore,              // ContainerManager::store
  kFlush,              // ContainerManager::flush
  kParse,              // ContainerReader construction
  kEnqueue,            // UploadPipeline::enqueue
  kFinish,             // UploadPipeline::finish
  kUpload,             // CloudTarget::upload (uploader thread)
  kDownload,           // CloudTarget::download
  kRecipeSerialize,    // RecipeStore::serialize
  kRecipeDeserialize,  // RecipeStore::deserialize
  kBootstrap,          // restore: rebuild client state from the cloud (root)
  kRestoreFile,        // restore: reassemble one file (root)
};
inline constexpr std::size_t kOpCount = 24;

[[nodiscard]] std::string_view op_name(Op op) noexcept;
[[nodiscard]] Layer layer_of(Op op) noexcept;

/// Which part of a workload a span belongs to, decided by its root span.
enum class Phase : std::uint8_t { kBackup, kRestore };
inline constexpr std::size_t kPhaseCount = 2;

inline constexpr std::uint32_t kNoParent = 0xffffffffu;
inline constexpr std::uint64_t kNoFile = 0;

struct Span {
  Op op = Op::kSession;
  std::uint32_t parent = kNoParent;  // index into the same track
  std::uint64_t file = kNoFile;      // 1-based file ordinal in its snapshot
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one thread. Only that thread writes to it.
struct Track {
  std::string name;
  std::chrono::steady_clock::time_point epoch;  // shared by a recorder's tracks
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // indices of unclosed spans, innermost last

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }
};

class SpanRecorder {
 public:
  SpanRecorder();

  Track& main() noexcept { return main_; }
  Track& uploader() noexcept { return uploader_; }
  const Track& main() const noexcept { return main_; }
  const Track& uploader() const noexcept { return uploader_; }

  /// Drop every recorded span (keeps capacity).
  void clear();

  /// Write every span as tab-separated rows, preceded by `header_lines`
  /// (each written as a "# "-prefixed comment). Returns false on I/O error.
  bool write_tsv(const std::string& path,
                 const std::vector<std::string>& header_lines) const;

 private:
  Track main_;
  Track uploader_;
};

/// RAII span: opens on construction, closes on destruction. A null track
/// makes it a no-op, which is how the untraced replay runs the same code
/// without spans.
class Scope {
 public:
  Scope(Track* track, Op op, std::uint64_t file = kNoFile) : track_(track) {
    if (track_ == nullptr) return;
    Span span;
    span.op = op;
    span.parent = track_->open.empty() ? kNoParent : track_->open.back();
    span.file = file;
    index_ = static_cast<std::uint32_t>(track_->spans.size());
    track_->open.push_back(index_);
    track_->spans.push_back(span);
    track_->spans.back().start_ns = track_->now_ns();
  }
  ~Scope() {
    if (track_ == nullptr) return;
    track_->spans[index_].end_ns = track_->now_ns();
    track_->open.pop_back();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Track* track_;
  std::uint32_t index_ = 0;
};

/// Per-operation and per-layer time, derived from the spans.
struct SpanSummary {
  std::array<double, kOpCount> total_s{};  // sum of span durations
  std::array<double, kOpCount> self_s{};   // durations minus child coverage
  /// Self time per (phase, layer).
  std::array<std::array<double, kLayerCount>, kPhaseCount> layer_self_s{};

  [[nodiscard]] double self(Op op) const {
    return self_s[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] double total(Op op) const {
    return total_s[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] double layer_self(Layer layer) const;  // all phases
  [[nodiscard]] double phase_self(Phase phase) const;  // all layers
};

[[nodiscard]] SpanSummary summarize(const SpanRecorder& recorder);

}  // namespace perfbench
