// Shared declarations of the end-to-end benchmark: workload inputs, the
// closed-loop client runs through the scheme's public entry points, and the
// single-threaded per-layer replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "backup/scheme.hpp"
#include "cloud/cloud_target.hpp"
#include "dataset/snapshot.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds from `begin` to `end` (default: now).
inline double seconds_since(Clock::time_point begin,
                            Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double>(end - begin).count();
}

enum class Workload : std::uint8_t { kPcWeekly, kDocsCdc, kRestore };

/// Input size of one run. kFull is what the benchmark measures; kTiny is
/// the same code path on a few MB, for the benchmark's own tests.
enum class Scale : std::uint8_t { kFull, kTiny };

struct WorkloadSpec {
  Workload workload = Workload::kPcWeekly;
  Scale scale = Scale::kFull;
  std::uint64_t seed = 1;
  /// Independent PCs per run, each with its own data (sub-seeds of
  /// `seed`), backed up one after another. Averaging over several PCs
  /// keeps one seed's data from setting the run's figures.
  std::uint32_t pcs = 16;
  std::uint32_t sessions = 4;          // weekly sessions per PC
  std::uint64_t session_bytes = 0;     // generator target for session 0
  std::size_t worker_threads = 3;      // AaDedupeOptions::worker_threads
  std::size_t cross_check_workers = 1;  // the other worker count checked
};

[[nodiscard]] WorkloadSpec make_spec(Workload workload, Scale scale,
                                     std::uint64_t seed);

using Sessions = std::vector<aadedupe::dataset::Snapshot>;

/// The weekly snapshots of PC `pc` of a run, generated from a sub-seed of
/// the spec's seed.
[[nodiscard]] Sessions generate_pc(const WorkloadSpec& spec, std::uint32_t pc);

/// What one backup session did to the cloud, as seen from outside the
/// scheme (or counted by the replay): the values the replay must
/// reproduce exactly.
struct SessionTally {
  std::uint64_t unique_bytes = 0;      // container bytes shipped
  std::uint64_t duplicate_chunks = 0;  // chunks that referenced stored data
  std::uint64_t put_requests = 0;
  std::uint64_t bytes_uploaded = 0;
};

/// Simulated-clock values of a set of backups; identical for one seed at
/// any worker count.
struct DeterministicValues {
  double dedup_ratio = 0.0;
  double cloud_cost_usd_month = 0.0;
  std::uint64_t put_requests = 0;
  std::uint64_t bytes_uploaded = 0;
  double transfer_sim_s = 0.0;
};

/// Compare two sets of simulated-clock values. Integer values must match
/// exactly; floating values to 1e-9 relative, because the uploader sums
/// per-object transfer times in completion order. Mismatches are
/// described in `why`.
[[nodiscard]] bool same_values(const DeterministicValues& a,
                               const DeterministicValues& b, std::string& why);

/// Counts of checked operations. Every verified file, backed-up session,
/// determinism check and replay agreement check is one attempt.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  void check(bool ok, const std::string& what);
};

/// All weekly sessions backed up by one AaDedupeScheme on `target`.
struct BackupRound {
  std::vector<aadedupe::backup::SessionReport> reports;
  std::vector<SessionTally> tallies;
  DeterministicValues values;
  std::uint64_t index_lookups = 0;
  std::uint64_t index_hits = 0;
};

/// Back up every session with a fresh scheme. Each session that throws is
/// a failed operation; the round stops at the first one.
BackupRound run_backup_round(aadedupe::cloud::CloudTarget& target,
                             const std::vector<aadedupe::dataset::Snapshot>&
                                 sessions,
                             std::size_t worker_threads, Outcome& outcome);

/// One disaster-recovery pass over a backed-up target: a fresh client runs
/// bootstrap_from_cloud, restores every file of the latest session, then
/// does a point-in-time restore of every file of the oldest session. Every
/// restored file is byte-compared with dataset::materialize_into of its
/// FileEntry outside the timed calls.
struct RestorePass {
  double bootstrap_s = 0.0;
  double latest_s = 0.0;  // sum of restore_file wall times
  double pit_s = 0.0;     // sum of restore_file_at wall times
  std::uint64_t latest_bytes = 0;
  std::uint64_t pit_bytes = 0;
  std::uint64_t get_requests = 0;
  std::uint64_t bytes_downloaded = 0;
};

RestorePass run_restore_pass(aadedupe::cloud::CloudTarget& target,
                             const aadedupe::dataset::Snapshot& oldest,
                             const aadedupe::dataset::Snapshot& latest,
                             std::size_t worker_threads, Outcome& outcome);

/// Flip the last byte of the lowest-numbered container object in the
/// target's store (the end of its last chunk's payload). Used by the
/// benchmark's tests to prove the verifier catches silent corruption.
void corrupt_one_container(aadedupe::cloud::CloudTarget& target);

/// Layer counters of one replay, kept whether or not spans are recorded.
struct ReplayCounts {
  std::uint64_t materialized_bytes = 0;
  std::uint64_t cdc_bytes = 0;        // bytes split by the CDC engine
  std::uint64_t chunks = 0;           // chunks of non-tiny files
  std::uint64_t chunk_bytes = 0;      // bytes of non-tiny files
  std::uint64_t rabin96_bytes = 0;    // bytes fingerprinted, per hash
  std::uint64_t md5_bytes = 0;
  std::uint64_t sha1_bytes = 0;
  std::uint64_t index_lookups = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t index_probe_steps = 0;
  std::uint64_t index_inserts = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t containers_sealed = 0;
  std::uint64_t container_payload_bytes = 0;  // chunk bytes packed
  std::uint64_t container_puts = 0;
  std::uint64_t container_put_bytes = 0;
  std::uint64_t upload_items = 0;
  std::uint64_t upload_requeues = 0;
  std::uint64_t upload_failed = 0;
  std::uint64_t get_requests = 0;        // restore phase
  std::uint64_t bytes_downloaded = 0;    // restore phase
  std::uint64_t containers_fetched = 0;  // restore phase
  std::uint64_t bytes_restored = 0;
};

struct ReplayResult {
  ReplayCounts counts;
  std::vector<SessionTally> tallies;  // one per backup session
  double backup_s = 0.0;   // wall time of the backup phase
  double restore_s = 0.0;  // wall time of the restore phase, less checks
};

/// Replay the workload single-threaded through each layer's public
/// functions, in the scheme's order: the weekly backups, then the restore
/// pass. With a recorder, every call is bracketed by a span; without one
/// the same code runs untraced. Restored bytes are verified outside the
/// spans and the timed phases.
ReplayResult replay(const std::vector<aadedupe::dataset::Snapshot>& sessions,
                    SpanRecorder* recorder, Outcome& outcome);

/// Scheme name used in the cloud metadata keys.
inline constexpr std::string_view kSchemeName = "AA-Dedupe";

}  // namespace perfbench
