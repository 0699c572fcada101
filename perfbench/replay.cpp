// Single-threaded replay of a workload through each layer's public
// functions, in AaDedupeScheme's order (see core/aa_dedupe.cpp): per
// session, route files to application streams; per file, materialize,
// split, fingerprint and probe the stream's index shard; pack new chunks
// into the stream's container and ship sealed containers through the
// upload pipeline; then sync recipes and the index checkpoint. The restore
// phase mirrors bootstrap_from_cloud and restore_file / restore_file_at.
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "backup/keys.hpp"
#include "bench.hpp"
#include "container/container.hpp"
#include "container/container_manager.hpp"
#include "container/recipe.hpp"
#include "core/policy.hpp"
#include "core/upload_pipeline.hpp"
#include "dataset/content.hpp"
#include "hash/rabin.hpp"
#include "index/checkpoint.hpp"
#include "index/partitioned_index.hpp"

namespace perfbench {

using namespace aadedupe;

namespace {

constexpr char kTinyStream[] = "tiny";

Op split_op(dataset::FileKind kind) {
  switch (dataset::category_of(kind)) {
    case dataset::AppCategory::kCompressed:
      return Op::kSplitWfc;
    case dataset::AppCategory::kStaticUncompressed:
      return Op::kSplitSc;
    case dataset::AppCategory::kDynamicUncompressed:
      return Op::kSplitCdc;
  }
  return Op::kSplitCdc;
}

Op hash_op(hash::HashKind kind) {
  switch (kind) {
    case hash::HashKind::kRabin96:
      return Op::kHashRabin96;
    case hash::HashKind::kMd5:
      return Op::kHashMd5;
    case hash::HashKind::kSha1:
      return Op::kHashSha1;
  }
  return Op::kHashSha1;
}

class Replayer {
 public:
  Replayer(SpanRecorder* recorder, Outcome& outcome)
      : main_(recorder != nullptr ? &recorder->main() : nullptr),
        uploader_(recorder != nullptr ? &recorder->uploader() : nullptr),
        outcome_(outcome) {}

  ReplayResult run(const std::vector<dataset::Snapshot>& sessions) {
    const Clock::time_point backup_begin = Clock::now();
    for (const dataset::Snapshot& snapshot : sessions) backup(snapshot);
    const index::IndexStats stats = index_.total_stats();
    result_.counts.index_lookups = stats.lookups;
    result_.counts.index_hits = stats.hits;
    result_.counts.index_probe_steps = stats.probe_steps;
    const Clock::time_point restore_begin = Clock::now();
    result_.backup_s = seconds_since(backup_begin, restore_begin);

    const cloud::StoreStats before = target_.store().stats();
    bootstrap();
    restore(sessions.back(), /*pit=*/false);
    restore(sessions.front(), /*pit=*/true);
    const cloud::StoreStats after = target_.store().stats();
    result_.counts.get_requests = after.get_requests - before.get_requests;
    result_.counts.bytes_downloaded =
        after.bytes_downloaded - before.bytes_downloaded;
    result_.restore_s =
        seconds_since(restore_begin) - check_s_;
    return std::move(result_);
  }

 private:
  void backup(const dataset::Snapshot& snapshot) {
    ReplayCounts& counts = result_.counts;
    const cloud::StoreStats before = target_.store().stats();
    SessionTally tally;
    {
      Scope session(main_, Op::kSession);
      // Route files to streams exactly as run_session does; each entry
      // keeps the file's 1-based ordinal for its spans.
      std::map<std::string,
               std::vector<std::pair<std::uint64_t, const dataset::FileEntry*>>>
          streams;
      for (std::size_t i = 0; i < snapshot.files.size(); ++i) {
        const dataset::FileEntry& file = snapshot.files[i];
        streams[filter_.is_tiny(file.size())
                    ? std::string(kTinyStream)
                    : core::DedupPolicy::partition_key(file.kind)]
            .emplace_back(i + 1, &file);
      }

      core::UploadPipeline pipeline(
          [this](const core::UploadItem& item) {
            Scope upload(uploader_, Op::kUpload);
            if (item.kind == core::ObjectKind::kContainer) {
              ++result_.counts.container_puts;
              result_.counts.container_put_bytes += item.payload.size();
            }
            return target_.upload(item.key, item.payload);
          },
          core::UploadPipelineOptions{});

      container::RecipeStore recipes;
      for (const auto& [key, files] : streams) {
        const bool tiny = key == kTinyStream;
        index::ChunkIndex* shard = tiny ? nullptr : &index_.shard(key);
        container::ContainerManager manager(
            ids_, [this, &pipeline](std::uint64_t id, ByteBuffer bytes) {
              Scope enqueue(main_, Op::kEnqueue);
              pipeline.enqueue(backup::keys::container_object(id),
                               std::move(bytes));
            });
        for (const auto& [ordinal, file] : files) {
          recipes.put(commit_file(*file, ordinal, tiny, key, shard, manager,
                                  tally));
        }
        {
          Scope flush(main_, Op::kFlush);
          manager.flush();
        }
        tally.unique_bytes += manager.bytes_stored();
        counts.containers_sealed += manager.containers_shipped();
      }

      // Metadata sync: recipes, then the incremental index checkpoint.
      ByteBuffer image;
      {
        Scope serialize(main_, Op::kRecipeSerialize);
        image = recipes.serialize();
      }
      {
        Scope enqueue(main_, Op::kEnqueue);
        pipeline.enqueue(
            backup::keys::session_meta(kSchemeName, snapshot.session,
                                       "recipes"),
            std::move(image), core::ObjectKind::kMetadata);
      }
      index::BufferCheckpointSink sink;
      {
        Scope checkpoint(main_, Op::kCheckpoint);
        index_.checkpoint(sink);
      }
      ByteBuffer delta = sink.take();
      counts.checkpoint_bytes += delta.size();
      {
        Scope enqueue(main_, Op::kEnqueue);
        pipeline.enqueue(
            backup::keys::session_meta(kSchemeName, snapshot.session, "index"),
            std::move(delta), core::ObjectKind::kMetadata);
      }
      {
        Scope finish(main_, Op::kFinish);
        pipeline.finish();
      }
      counts.upload_items += pipeline.enqueued();
      counts.upload_requeues += pipeline.requeues();
      counts.upload_failed += pipeline.failed();
    }
    const cloud::StoreStats after = target_.store().stats();
    tally.put_requests = after.put_requests - before.put_requests;
    tally.bytes_uploaded = after.bytes_uploaded - before.bytes_uploaded;
    result_.tallies.push_back(tally);
  }

  container::FileRecipe commit_file(const dataset::FileEntry& file,
                                    std::uint64_t ordinal, bool tiny,
                                    const std::string& key,
                                    index::ChunkIndex* shard,
                                    container::ContainerManager& manager,
                                    SessionTally& tally) {
    ReplayCounts& counts = result_.counts;
    {
      Scope materialize(main_, Op::kMaterialize, ordinal);
      dataset::materialize_into(file.content, content_);
    }
    counts.materialized_bytes += content_.size();
    container::FileRecipe recipe;
    recipe.path = file.path;
    recipe.file_size = content_.size();
    recipe.tag = tiny ? std::string() : key;

    if (tiny) {
      // Tiny files skip dedup: a Rabin-96 tag and straight into a container.
      if (!content_.empty()) {
        hash::Digest digest;
        {
          Scope tag(main_, Op::kTinyTag, ordinal);
          digest = hash::Rabin96::hash(content_);
        }
        index::ChunkLocation location;
        {
          Scope store(main_, Op::kStore, ordinal);
          location = manager.store(digest, content_);
        }
        counts.container_payload_bytes += content_.size();
        recipe.entries.push_back(container::RecipeEntry{digest, location});
      }
      return recipe;
    }

    core::FileChunkPlan plan;
    core::CategoryPolicy category;
    {
      Scope split(main_, split_op(file.kind), ordinal);
      category = policy_.for_kind(file.kind);
      plan.chunks = category.chunker->split(content_);
    }
    {
      Scope fingerprint(main_, hash_op(category.hash_kind),
                        ordinal);
      core::fingerprint_chunks(category, content_, plan);
    }
    switch (category.hash_kind) {
      case hash::HashKind::kRabin96:
        counts.rabin96_bytes += content_.size();
        break;
      case hash::HashKind::kMd5:
        counts.md5_bytes += content_.size();
        break;
      case hash::HashKind::kSha1:
        counts.sha1_bytes += content_.size();
        break;
    }
    if (dataset::category_of(file.kind) ==
        dataset::AppCategory::kDynamicUncompressed) {
      counts.cdc_bytes += content_.size();
    }
    counts.chunks += plan.chunks.size();
    counts.chunk_bytes += content_.size();
    {
      Scope lookup(main_, Op::kLookupBatch, ordinal);
      shard->lookup_batch(plan.digests, found_);
    }

    // Same commit rule as the scheme: a chunk absent from the shard but
    // already committed earlier in this file reuses that location.
    fresh_.clear();
    recipe.entries.reserve(plan.chunks.size());
    for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
      const chunk::ChunkRef& ref = plan.chunks[c];
      const hash::Digest& digest = plan.digests[c];
      index::ChunkLocation location;
      if (found_[c]) {
        location = *found_[c];
        ++tally.duplicate_chunks;
      } else if (const auto it = fresh_.find(digest); it != fresh_.end()) {
        location = it->second;
        ++tally.duplicate_chunks;
      } else {
        {
          Scope store(main_, Op::kStore, ordinal);
          location = manager.store(
              digest, ConstByteSpan{content_}.subspan(ref.offset, ref.length));
        }
        {
          Scope insert(main_, Op::kInsert, ordinal);
          shard->insert(digest, location);
        }
        fresh_.emplace(digest, location);
        counts.container_payload_bytes += ref.length;
        ++counts.index_inserts;
      }
      recipe.entries.push_back(container::RecipeEntry{digest, location});
    }
    return recipe;
  }

  std::optional<ByteBuffer> download(const std::string& key) {
    cloud::CloudResult<ByteBuffer> object = [&] {
      Scope download(main_, Op::kDownload);
      return target_.download(key);
    }();
    if (!object.ok()) {
      outcome_.check(false, "replay download " + key);
      return std::nullopt;
    }
    return std::move(object).value();
  }

  /// bootstrap_from_cloud's reads: every session's recipes, the index
  /// checkpoint chain, and the container listing.
  void bootstrap() {
    Scope bootstrap(main_, Op::kBootstrap);
    const std::string prefix = "meta/" + std::string(kSchemeName) + "/s";
    for (const std::string& key : target_.store().list(prefix)) {
      const std::size_t slash = key.find('/', prefix.size());
      if (slash == std::string::npos || key.substr(slash + 1) != "recipes") {
        continue;
      }
      const auto session = static_cast<std::uint32_t>(
          std::stoul(key.substr(prefix.size(), slash - prefix.size())));
      std::optional<ByteBuffer> image = download(key);
      if (!image) continue;
      Scope deserialize(main_, Op::kRecipeDeserialize);
      history_.emplace(session, container::RecipeStore::deserialize(*image));
    }
    for (const auto& [session, recipes] : history_) {
      std::optional<ByteBuffer> image = download(
          backup::keys::session_meta(kSchemeName, session, "index"));
      if (!image) continue;
      Scope restore(main_, Op::kIndexRestore);
      index::BufferCheckpointSource source(*image);
      restored_index_.restore(source);
    }
    (void)target_.store().list("containers/c");
  }

  /// restore_file / restore_file_at for every file of `snapshot`, sharing
  /// one container-reader cache across both calls, as the scheme does.
  void restore(const dataset::Snapshot& snapshot, bool pit) {
    const auto it = history_.find(snapshot.session);
    for (std::size_t i = 0; i < snapshot.files.size(); ++i) {
      const dataset::FileEntry& file = snapshot.files[i];
      std::string error;
      try {
        Scope restore_file(main_, Op::kRestoreFile, i + 1);
        const container::FileRecipe* recipe =
            it == history_.end() ? nullptr : it->second.find(file.path);
        if (recipe == nullptr) throw std::runtime_error("no recipe");
        restored_.clear();
        restored_.reserve(recipe->file_size);
        for (const container::RecipeEntry& entry : recipe->entries) {
          auto reader = readers_.find(entry.location.container_id);
          if (reader == readers_.end()) {
            std::optional<ByteBuffer> object = download(
                backup::keys::container_object(entry.location.container_id));
            if (!object) throw std::runtime_error("missing container");
            ++result_.counts.containers_fetched;
            Scope parse(main_, Op::kParse);
            reader = readers_
                         .emplace(entry.location.container_id,
                                  std::make_unique<container::ContainerReader>(
                                      std::move(*object)))
                         .first;
          }
          append(restored_, reader->second->chunk_at(entry.location.offset,
                                                     entry.location.length));
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      const Clock::time_point check_begin = Clock::now();
      if (error.empty()) {
        dataset::materialize_into(file.content, expected_);
        if (restored_ != expected_) error = "restored bytes differ";
      }
      result_.counts.bytes_restored += restored_.size();
      check_s_ += seconds_since(check_begin);
      outcome_.check(error.empty(), "replay restore " + file.path + " @s" +
                                        std::to_string(snapshot.session) +
                                        (pit ? " (pit): " : ": ") + error);
    }
  }

  Track* main_;      // null when untraced
  Track* uploader_;  // the upload pipeline's uploader thread
  Outcome& outcome_;

  cloud::CloudTarget target_;
  index::PartitionedIndex index_;
  container::ContainerIdAllocator ids_;
  const core::DedupPolicy policy_;
  const core::FileSizeFilter filter_;

  ByteBuffer content_;
  std::vector<std::optional<index::ChunkLocation>> found_;
  std::unordered_map<hash::Digest, index::ChunkLocation, hash::Digest::Hasher>
      fresh_;

  std::map<std::uint32_t, container::RecipeStore> history_;
  index::PartitionedIndex restored_index_;
  std::map<std::uint64_t, std::unique_ptr<container::ContainerReader>>
      readers_;
  ByteBuffer restored_;
  ByteBuffer expected_;
  double check_s_ = 0.0;

  ReplayResult result_;
};

}  // namespace

ReplayResult replay(const std::vector<dataset::Snapshot>& sessions,
                    SpanRecorder* recorder, Outcome& outcome) {
  Replayer replayer(recorder, outcome);
  return replayer.run(sessions);
}

}  // namespace perfbench
