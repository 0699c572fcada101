// Workload inputs and the closed-loop client runs: weekly backups and the
// disaster-recovery restore pass, driven through AaDedupeScheme's public
// entry points only.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <map>

#include "bench.hpp"
#include "core/aa_dedupe.hpp"
#include "dataset/content.hpp"
#include "dataset/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace aadedupe;

namespace {

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

WorkloadSpec make_spec(Workload workload, Scale scale, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.workload = workload;
  spec.scale = scale;
  spec.seed = seed;
  const bool tiny = scale == Scale::kTiny;
  spec.sessions = tiny ? 3 : 4;
  spec.pcs = tiny ? 2 : 16;
  switch (workload) {
    case Workload::kPcWeekly:
      spec.session_bytes = tiny ? (4ull << 20) : (64ull << 20);
      spec.worker_threads = 3;
      spec.cross_check_workers = 1;
      break;
    case Workload::kDocsCdc:
      spec.session_bytes = tiny ? (4ull << 20) : (32ull << 20);
      spec.worker_threads = 1;
      spec.cross_check_workers = 3;
      break;
    case Workload::kRestore:
      spec.session_bytes = tiny ? (4ull << 20) : (48ull << 20);
      spec.worker_threads = 3;
      spec.cross_check_workers = 1;
      break;
  }
  return spec;
}

Sessions generate_pc(const WorkloadSpec& spec, std::uint32_t pc) {
  dataset::DatasetConfig config;
  config.seed = derive_seed(spec.seed, pc);
  config.session_bytes = spec.session_bytes;
  if (spec.scale == Scale::kTiny) config.max_file_bytes = 1ull << 20;
  dataset::DatasetGenerator generator(config);
  if (spec.workload != Workload::kDocsCdc) {
    return generator.sessions(spec.sessions);
  }
  // Document-only mix: one corpus per dynamic-category kind, then weekly
  // churn (insert/append/replace edits that shift chunk boundaries).
  std::vector<dataset::Snapshot> out;
  out.reserve(spec.sessions);
  dataset::Snapshot first;
  for (const dataset::FileKind kind :
       {dataset::FileKind::kDoc, dataset::FileKind::kTxt,
        dataset::FileKind::kPpt}) {
    dataset::Snapshot corpus =
        generator.kind_corpus(kind, spec.session_bytes / 3);
    for (dataset::FileEntry& file : corpus.files) {
      first.files.push_back(std::move(file));
    }
  }
  out.push_back(std::move(first));
  while (out.size() < spec.sessions) out.push_back(generator.next(out.back()));
  return out;
}

bool same_values(const DeterministicValues& a, const DeterministicValues& b,
                 std::string& why) {
  why.clear();
  if (a.put_requests != b.put_requests) why += " put_requests";
  if (a.bytes_uploaded != b.bytes_uploaded) why += " bytes_uploaded";
  if (!close_enough(a.dedup_ratio, b.dedup_ratio)) why += " dedup_ratio";
  if (!close_enough(a.cloud_cost_usd_month, b.cloud_cost_usd_month)) {
    why += " cloud_cost_usd_month";
  }
  if (!close_enough(a.transfer_sim_s, b.transfer_sim_s)) {
    why += " transfer_sim_s";
  }
  return why.empty();
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (notes.size() < 10) notes.push_back(what);
}

BackupRound run_backup_round(cloud::CloudTarget& target,
                             const std::vector<dataset::Snapshot>& sessions,
                             std::size_t worker_threads, Outcome& outcome) {
  core::AaDedupeOptions options;
  options.worker_threads = worker_threads;
  core::AaDedupeScheme scheme(target, options);

  BackupRound round;
  std::map<std::string, std::uint64_t> entries_before;
  std::uint64_t logical = 0;
  for (const dataset::Snapshot& snapshot : sessions) {
    backup::SessionReport report;
    try {
      report = scheme.backup(snapshot);
    } catch (const std::exception& e) {
      outcome.check(false, "backup session " +
                               std::to_string(snapshot.session) + ": " +
                               e.what());
      return round;
    }
    outcome.check(true, {});

    // Duplicates as seen from outside: chunks in the session's recipes
    // minus the fingerprints the session added to the index.
    SessionTally tally;
    tally.put_requests = report.upload_requests;
    tally.bytes_uploaded = report.transferred_bytes;
    std::uint64_t chunks = 0;
    std::uint64_t inserted = 0;
    for (const auto& row : scheme.application_stats()) {
      tally.unique_bytes += row.session_new_bytes;
      if (row.partition == "tiny") continue;
      chunks += row.session_chunks;
      inserted += row.index_entries - entries_before[row.partition];
      entries_before[row.partition] = row.index_entries;
    }
    tally.duplicate_chunks = chunks - inserted;
    round.tallies.push_back(tally);

    logical += report.dataset_bytes;
    round.values.put_requests += report.upload_requests;
    round.values.bytes_uploaded += report.transferred_bytes;
    round.values.transfer_sim_s += report.transfer_seconds;
    round.reports.push_back(std::move(report));
  }
  for (const auto& row : scheme.application_stats()) {
    round.index_lookups += row.index_lookups;
    round.index_hits += row.index_hits;
  }
  round.values.dedup_ratio =
      round.values.bytes_uploaded == 0
          ? 0.0
          : static_cast<double>(logical) /
                static_cast<double>(round.values.bytes_uploaded);
  round.values.cloud_cost_usd_month = target.monthly_cost();
  return round;
}

RestorePass run_restore_pass(cloud::CloudTarget& target,
                             const dataset::Snapshot& oldest,
                             const dataset::Snapshot& latest,
                             std::size_t worker_threads, Outcome& outcome) {
  core::AaDedupeOptions options;
  options.worker_threads = worker_threads;
  core::AaDedupeScheme client(target, options);

  RestorePass pass;
  const cloud::StoreStats before = target.store().stats();
  try {
    const Clock::time_point begin = Clock::now();
    const std::uint32_t recovered = client.bootstrap_from_cloud();
    pass.bootstrap_s = seconds_since(begin);
    outcome.check(recovered == latest.session - oldest.session + 1,
                  "bootstrap recovered " + std::to_string(recovered) +
                      " sessions");
  } catch (const std::exception& e) {
    outcome.check(false, std::string("bootstrap: ") + e.what());
    return pass;
  }

  ByteBuffer expected;
  const auto restore_all = [&](const dataset::Snapshot& snapshot, bool pit,
                               double& seconds, std::uint64_t& bytes) {
    for (const dataset::FileEntry& file : snapshot.files) {
      ByteBuffer restored;
      std::string error;
      try {
        const Clock::time_point begin = Clock::now();
        restored = pit ? client.restore_file_at(file.path, snapshot.session)
                       : client.restore_file(file.path);
        seconds += seconds_since(begin);
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (error.empty()) {
        dataset::materialize_into(file.content, expected);
        if (restored != expected) error = "restored bytes differ";
      }
      outcome.check(error.empty(), "restore " + file.path + " @s" +
                                       std::to_string(snapshot.session) +
                                       ": " + error);
      bytes += file.size();
    }
  };
  restore_all(latest, /*pit=*/false, pass.latest_s, pass.latest_bytes);
  restore_all(oldest, /*pit=*/true, pass.pit_s, pass.pit_bytes);

  const cloud::StoreStats after = target.store().stats();
  pass.get_requests = after.get_requests - before.get_requests;
  pass.bytes_downloaded = after.bytes_downloaded - before.bytes_downloaded;
  return pass;
}

void corrupt_one_container(cloud::CloudTarget& target) {
  std::string victim;
  std::uint64_t lowest = ~std::uint64_t{0};
  for (const std::string& key : target.store().list("containers/c")) {
    const std::uint64_t id = std::strtoull(key.c_str() + 12, nullptr, 10);
    if (id < lowest) {
      lowest = id;
      victim = key;
    }
  }
  if (victim.empty()) return;
  std::optional<ByteBuffer> object = target.store().get(victim);
  if (!object || object->empty()) return;
  object->back() ^= std::byte{0xff};
  target.store().put_internal(victim, std::move(*object));
}

}  // namespace perfbench
