// aad_perfbench — end-to-end backup/restore benchmark of AaDedupeScheme.
//
//   aad_perfbench --workload pc_weekly|docs_cdc|restore --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//                 [--scale full|tiny] [--corrupt-container]
//
// One closed-loop client: a single process, one scheme at a time on an
// in-memory CloudTarget, weekly sessions back to back. With --trace 0 it
// reports the end-to-end metrics, measured through the scheme's public
// entry points; with --trace 1 it replays the same inputs through each
// layer's public functions and reports per-layer metrics from spans. The
// last line of stdout is the result object; the line before it carries the
// host facts every number was measured on.
#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "cloud/cloud_target.hpp"
#include "container/container.hpp"
#include "hash/batch_hasher.hpp"

namespace perfbench {
namespace {

using namespace aadedupe;

struct Args {
  Workload workload = Workload::kPcWeekly;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  Scale scale = Scale::kFull;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aad_perfbench: %s\n"
               "usage: aad_perfbench --workload pc_weekly|docs_cdc|restore "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--scale full|tiny] [--corrupt-container]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-container") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload_name = value;
      have_workload = true;
      if (value == "pc_weekly") {
        args.workload = Workload::kPcWeekly;
      } else if (value == "docs_cdc") {
        args.workload = Workload::kDocsCdc;
      } else if (value == "restore") {
        args.workload = Workload::kRestore;
      } else {
        usage("unknown workload");
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale");
      args.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string host_facts(const WorkloadSpec& spec) {
  const hash::BatchHasher& hasher = hash::default_batch_hasher();
  std::string out = "{\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"worker_threads\": " + std::to_string(spec.worker_threads);
  out += ", \"hash_impl\": {\"rabin96\": " +
         json_string(std::string(hasher.impl_tag(hash::HashKind::kRabin96))) +
         ", \"md5\": " +
         json_string(std::string(hasher.impl_tag(hash::HashKind::kMd5))) +
         ", \"sha1\": " +
         json_string(std::string(hasher.impl_tag(hash::HashKind::kSha1))) +
         "}}";
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

/// One PC's timed rounds: its weekly backups and restore passes.
struct PcRuns {
  std::vector<BackupRound> backups;
  std::vector<RestorePass> restores;
};

/// Figures of one PC, each timing the median over the PC's rounds.
struct PcFigures {
  double first_bytes = 0.0, first_s = 0.0;
  double incr_bytes = 0.0, incr_s = 0.0;
  double cpu_s = 0.0;
  double window_s = 0.0;
  double latest_bytes = 0.0, latest_s = 0.0;  // bootstrap + latest restore
  double pit_bytes = 0.0, pit_s = 0.0;
};

PcFigures pc_figures(const PcRuns& runs) {
  PcFigures f;
  std::vector<double> first_s, incr_s, cpu_s, window_s, latest_s, pit_s;
  for (const BackupRound& round : runs.backups) {
    double incr = 0.0, cpu = 0.0, window = 0.0;
    for (const backup::SessionReport& report : round.reports) {
      if (report.session == round.reports.front().session) {
        first_s.push_back(report.dedupe_seconds);
        f.first_bytes = static_cast<double>(report.dataset_bytes);
      } else {
        incr += report.dedupe_seconds;
      }
      cpu += report.cpu_seconds;
      window += report.backup_window_seconds();
    }
    incr_s.push_back(incr);
    cpu_s.push_back(cpu);
    window_s.push_back(window);
  }
  if (!runs.backups.empty()) {
    const std::vector<backup::SessionReport>& reports =
        runs.backups.front().reports;
    for (std::size_t i = 1; i < reports.size(); ++i) {
      f.incr_bytes += static_cast<double>(reports[i].dataset_bytes);
    }
  }
  for (const RestorePass& pass : runs.restores) {
    latest_s.push_back(pass.bootstrap_s + pass.latest_s);
    pit_s.push_back(pass.pit_s);
    f.latest_bytes = static_cast<double>(pass.latest_bytes);
    f.pit_bytes = static_cast<double>(pass.pit_bytes);
  }
  f.first_s = median(first_s);
  f.incr_s = median(incr_s);
  f.cpu_s = median(cpu_s);
  f.window_s = median(window_s);
  f.latest_s = median(latest_s);
  f.pit_s = median(pit_s);
  return f;
}

std::vector<Metric> end_to_end(const Args& args, const WorkloadSpec& spec,
                               Outcome& outcome, std::size_t& rounds_out) {
  const bool restore_workload = args.workload == Workload::kRestore;
  constexpr int kRestorePassesPerSetup = 3;
  std::vector<PcRuns> runs(spec.pcs);
  std::vector<std::vector<double>> setup_s(spec.pcs);

  // One round serves one PC. Its set-up regenerates the PC's snapshots
  // and, for `restore`, backs them up to a fresh target; set-ups recur
  // through the whole run, so their median sees the same host as the
  // timed work. Backup workloads then time the PC's weekly backups on a
  // fresh target and verify them with one restore pass; `restore` times
  // several restore passes on the set-up's target, and its backup figures
  // come from the set-up backups.
  const auto round = [&](std::size_t pc, PcRuns* into) {
    const Clock::time_point setup_begin = Clock::now();
    const Sessions sessions =
        generate_pc(spec, static_cast<std::uint32_t>(pc));
    cloud::CloudTarget target;
    std::optional<BackupRound> backups;
    if (restore_workload) {
      backups = run_backup_round(target, sessions, spec.worker_threads,
                                 outcome);
    }
    const double setup = seconds_since(setup_begin);
    if (!restore_workload) {
      backups = run_backup_round(target, sessions, spec.worker_threads,
                                 outcome);
    }
    if (args.corrupt) corrupt_one_container(target);
    const int passes = restore_workload ? kRestorePassesPerSetup : 1;
    for (int i = 0; i < passes; ++i) {
      RestorePass pass = run_restore_pass(target, sessions.front(),
                                          sessions.back(),
                                          spec.worker_threads, outcome);
      if (into != nullptr) into->restores.push_back(pass);
    }
    if (into != nullptr) {
      into->backups.push_back(std::move(*backups));
      setup_s[pc].push_back(setup);
    }
  };

  // The first round warms the process (page faults, allocator) and is not
  // recorded. Then cycle over the PCs until the time is up and each PC has
  // enough rounds for its medians.
  constexpr std::size_t kMinRoundsPerPc = 3;
  round(0, nullptr);
  std::size_t rounds = 0;
  const Clock::time_point begin = Clock::now();
  do {
    const std::size_t pc = rounds % spec.pcs;
    round(pc, &runs[pc]);
    ++rounds;
  } while (rounds < kMinRoundsPerPc * spec.pcs ||
           seconds_since(begin) < args.seconds);
  rounds_out = rounds;

  // Determinism: every repeat of a PC's backups, and one extra set of
  // PC 0's backups at the other worker count (outside the timed region),
  // must reproduce the simulated-clock values of its first.
  std::string why;
  for (std::size_t pc = 0; pc < runs.size(); ++pc) {
    const std::vector<BackupRound>& backups = runs[pc].backups;
    for (std::size_t i = 1; i < backups.size(); ++i) {
      outcome.check(same_values(backups.front().values, backups[i].values, why),
                    "pc " + std::to_string(pc) + " repeat " +
                        std::to_string(i) + " drifted:" + why);
    }
  }
  {
    cloud::CloudTarget cross_target;
    const BackupRound cross = run_backup_round(
        cross_target, generate_pc(spec, 0), spec.cross_check_workers,
        outcome);
    outcome.check(
        same_values(runs.front().backups.front().values, cross.values, why),
        std::to_string(spec.cross_check_workers) +
            "-worker run drifted:" + why);
  }

  // Sums over PCs: throughput is total MB over total (median) seconds;
  // window and cost are per PC.
  PcFigures sum;
  double logical = 0.0, uploaded = 0.0, cost = 0.0, setup_total = 0.0;
  for (const std::vector<double>& samples : setup_s) {
    setup_total += median(samples);
  }
  for (const PcRuns& pc : runs) {
    const PcFigures f = pc_figures(pc);
    sum.first_bytes += f.first_bytes;
    sum.first_s += f.first_s;
    sum.incr_bytes += f.incr_bytes;
    sum.incr_s += f.incr_s;
    sum.cpu_s += f.cpu_s;
    sum.window_s += f.window_s;
    sum.latest_bytes += f.latest_bytes;
    sum.latest_s += f.latest_s;
    sum.pit_bytes += f.pit_bytes;
    sum.pit_s += f.pit_s;
    const BackupRound& first = pc.backups.front();
    for (const backup::SessionReport& report : first.reports) {
      logical += static_cast<double>(report.dataset_bytes);
    }
    uploaded += static_cast<double>(first.values.bytes_uploaded);
    cost += first.values.cloud_cost_usd_month;
  }
  const double n = static_cast<double>(runs.size());
  const double backup_mb_s =
      ratio((sum.first_bytes + sum.incr_bytes) / 1e6, sum.first_s + sum.incr_s);
  const double dedup_ratio = ratio(logical, uploaded);
  return {
      {"setup_s", setup_total, "s"},
      {"backup_mb_s", backup_mb_s, "MB/s"},
      {"first_backup_mb_s", ratio(sum.first_bytes / 1e6, sum.first_s), "MB/s"},
      {"incremental_backup_mb_s", ratio(sum.incr_bytes / 1e6, sum.incr_s),
       "MB/s"},
      {"backup_cpu_s_per_gb",
       ratio(sum.cpu_s, (sum.first_bytes + sum.incr_bytes) / 1e9), "s/GB"},
      {"de_mb_s", dedup_ratio > 1.0 ? (1.0 - 1.0 / dedup_ratio) * backup_mb_s : 0.0,
       "MB/s"},
      {"dedup_ratio", dedup_ratio, "x"},
      {"backup_window_s", sum.window_s / n, "s"},
      {"cloud_cost_usd_month", cost / n, "USD/month"},
      {"restore_mb_s", ratio(sum.latest_bytes / 1e6, sum.latest_s), "MB/s"},
      {"restore_pit_mb_s", ratio(sum.pit_bytes / 1e6, sum.pit_s), "MB/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).

void check_agreement(const ReplayResult& replay, const BackupRound& round,
                     const RestorePass& pass, Outcome& outcome) {
  outcome.check(replay.tallies.size() == round.tallies.size(),
                "replay session count differs");
  for (std::size_t i = 0;
       i < std::min(replay.tallies.size(), round.tallies.size()); ++i) {
    const SessionTally& a = replay.tallies[i];
    const SessionTally& b = round.tallies[i];
    const std::string session = "session " + std::to_string(i) + ": ";
    outcome.check(a.unique_bytes == b.unique_bytes,
                  session + "replay unique bytes differ");
    outcome.check(a.duplicate_chunks == b.duplicate_chunks,
                  session + "replay duplicate chunks differ");
    outcome.check(a.put_requests == b.put_requests,
                  session + "replay put requests differ");
    outcome.check(a.bytes_uploaded == b.bytes_uploaded,
                  session + "replay bytes uploaded differ");
  }
  outcome.check(replay.counts.index_lookups == round.index_lookups &&
                    replay.counts.index_hits == round.index_hits,
                "replay index lookups/hits differ");
  outcome.check(replay.counts.get_requests == pass.get_requests &&
                    replay.counts.bytes_downloaded == pass.bytes_downloaded,
                "replay restore reads differ");
}

/// Per-layer metrics of one traced replay.
std::vector<Metric> layer_metrics(const SpanSummary& s, const ReplayCounts& c,
                                  Phase timed_phase) {
  const auto mb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / 1e6;
  };
  const auto n = [](std::uint64_t count) { return static_cast<double>(count); };
  const double split_s =
      s.self(Op::kSplitWfc) + s.self(Op::kSplitSc) + s.self(Op::kSplitCdc);
  const double fingerprint_s = s.self(Op::kHashRabin96) +
                               s.self(Op::kHashMd5) + s.self(Op::kHashSha1);
  std::vector<Metric> out = {
      {"dataset.materialize_s", s.self(Op::kMaterialize), "s"},
      {"dataset.materialize_mb_s",
       ratio(mb(c.materialized_bytes), s.self(Op::kMaterialize)), "MB/s"},
      {"chunk.split_s", split_s, "s"},
      {"chunk.cdc_mb_s", ratio(mb(c.cdc_bytes), s.self(Op::kSplitCdc)),
       "MB/s"},
      {"chunk.chunks", n(c.chunks), "count"},
      {"chunk.mean_chunk_bytes", ratio(n(c.chunk_bytes), n(c.chunks)), "B"},
      {"hash.fingerprint_s", fingerprint_s, "s"},
      {"hash.md5_mb_s", ratio(mb(c.md5_bytes), s.self(Op::kHashMd5)), "MB/s"},
      {"hash.rabin96_mb_s",
       ratio(mb(c.rabin96_bytes), s.self(Op::kHashRabin96)), "MB/s"},
      {"hash.sha1_mb_s", ratio(mb(c.sha1_bytes), s.self(Op::kHashSha1)),
       "MB/s"},
      {"index.lookups", n(c.index_lookups), "count"},
      {"index.hit_ratio", ratio(n(c.index_hits), n(c.index_lookups)), "ratio"},
      {"index.lookup_ns_per_op",
       ratio(s.self(Op::kLookupBatch) * 1e9, n(c.index_lookups)), "ns"},
      {"index.inserts", n(c.index_inserts), "count"},
      {"index.insert_ns_per_op",
       ratio(s.self(Op::kInsert) * 1e9, n(c.index_inserts)), "ns"},
      {"index.probe_steps_per_lookup",
       ratio(n(c.index_probe_steps), n(c.index_lookups)), "ratio"},
      {"index.checkpoint_s", s.self(Op::kCheckpoint), "s"},
      {"index.checkpoint_bytes", n(c.checkpoint_bytes), "B"},
      {"container.store_s", s.self(Op::kStore), "s"},
      {"container.sealed", n(c.containers_sealed), "count"},
      {"container.fill_ratio",
       ratio(n(c.container_payload_bytes),
             n(c.containers_sealed) *
                 static_cast<double>(container::kDefaultCapacity)),
       "ratio"},
      {"container.bytes_per_put",
       ratio(n(c.container_put_bytes), n(c.container_puts)), "B"},
      {"container.parse_s", s.self(Op::kParse), "s"},
      {"upload.enqueue_block_s", s.self(Op::kEnqueue), "s"},
      {"upload.finish_wait_s", s.self(Op::kFinish), "s"},
      {"upload.items", n(c.upload_items), "count"},
      {"upload.requeues", n(c.upload_requeues), "count"},
      {"upload.failed", n(c.upload_failed), "count"},
      {"cloud.download_s", s.self(Op::kDownload), "s"},
      {"restore.bootstrap_s", s.total(Op::kBootstrap), "s"},
      {"restore.read_amplification",
       ratio(n(c.bytes_downloaded), n(c.bytes_restored)), "ratio"},
      {"restore.containers_fetched", n(c.containers_fetched), "count"},
  };
  const double phase_total = s.phase_self(timed_phase);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const std::string name = "layer." + std::string(layer_name(layer));
    out.push_back({name + ".self_s", s.layer_self(layer), "s"});
    out.push_back(
        {name + ".share_pct",
         100.0 * ratio(s.layer_self_s[static_cast<std::size_t>(timed_phase)][l],
                       phase_total),
         "%"});
  }
  return out;
}

std::vector<Metric> traced(const Args& args, const WorkloadSpec& spec,
                           Outcome& outcome, std::size_t& rounds_out,
                           const std::string& host) {
  // The traced run replays PC 0 of the workload.
  const Sessions sessions = generate_pc(spec, 0);

  // The scheme's own runs of the same inputs: the counts the replay must
  // reproduce, the session CPU time (median of a few rounds), and the
  // cloud-side totals. The last round's target feeds the restore passes.
  constexpr int kSchemeRounds = 3;
  std::unique_ptr<cloud::CloudTarget> target;
  BackupRound round;
  std::vector<double> session_cpu_s, cpu_per_wall;
  for (int i = 0; i < kSchemeRounds; ++i) {
    target = std::make_unique<cloud::CloudTarget>();
    round = run_backup_round(*target, sessions, spec.worker_threads, outcome);
    double cpu = 0.0, wall = 0.0;
    for (const backup::SessionReport& report : round.reports) {
      cpu += report.cpu_seconds;
      wall += report.dedupe_seconds;
    }
    session_cpu_s.push_back(cpu);
    cpu_per_wall.push_back(ratio(cpu, wall));
  }
  if (args.corrupt) corrupt_one_container(*target);
  const RestorePass pass = run_restore_pass(*target, sessions.front(),
                                            sessions.back(),
                                            spec.worker_threads, outcome);

  // Alternate traced and untraced replays until the time is up; the
  // difference of their medians is the tracing overhead. A scheme restore
  // pass runs in between, so that it and the replay's restore phase see the
  // same process and host state.
  SpanRecorder recorder;
  std::vector<std::vector<Metric>> per_replay;
  std::vector<double> traced_s, plain_s, layer_time_s, restore_layer_s,
      restore_pass_s;
  const Clock::time_point begin = Clock::now();
  do {
    recorder.clear();
    ReplayResult with_spans = replay(sessions, &recorder, outcome);
    check_agreement(with_spans, round, pass, outcome);
    const SpanSummary summary = summarize(recorder);
    per_replay.push_back(layer_metrics(summary, with_spans.counts,
                                       args.workload == Workload::kRestore
                                           ? Phase::kRestore
                                           : Phase::kBackup));
    traced_s.push_back(with_spans.backup_s + with_spans.restore_s);
    layer_time_s.push_back(summary.phase_self(Phase::kBackup));
    restore_layer_s.push_back(summary.phase_self(Phase::kRestore));

    const RestorePass again = run_restore_pass(
        *target, sessions.front(), sessions.back(), spec.worker_threads,
        outcome);
    restore_pass_s.push_back(again.bootstrap_s + again.latest_s + again.pit_s);

    const ReplayResult without = replay(sessions, nullptr, outcome);
    check_agreement(without, round, pass, outcome);
    plain_s.push_back(without.backup_s + without.restore_s);
  } while (seconds_since(begin) < args.seconds);
  rounds_out = per_replay.size();

  if (!args.trace_out.empty() &&
      !recorder.write_tsv(args.trace_out,
                          {"host " + host, "workload " + args.workload_name,
                           "seed " + std::to_string(args.seed)})) {
    outcome.check(false, "cannot write " + args.trace_out);
  }

  // Per-metric medians over the traced replays.
  std::vector<Metric> out = per_replay.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& metrics : per_replay) values.push_back(metrics[m].value);
    out[m].value = median(values);
  }

  const double traced_median = median(traced_s);
  const double plain_median = median(plain_s);
  const std::vector<Metric> extra = {
      {"cloud.put_requests", static_cast<double>(round.values.put_requests),
       "count"},
      {"cloud.bytes_uploaded", static_cast<double>(round.values.bytes_uploaded),
       "B"},
      {"cloud.transfer_sim_s", round.values.transfer_sim_s, "s"},
      {"cloud.get_requests", static_cast<double>(pass.get_requests), "count"},
      {"cloud.bytes_downloaded", static_cast<double>(pass.bytes_downloaded),
       "B"},
      {"core.session_cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"core.insitu_overhead_ratio",
       ratio(median(session_cpu_s), median(layer_time_s)), "ratio"},
      {"restore.insitu_overhead_ratio",
       ratio(median(restore_pass_s), median(restore_layer_s)), "ratio"},
      {"trace.overhead_pct",
       100.0 * ratio(traced_median - plain_median, plain_median), "%"},
  };
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if defined(__GLIBC__)
  // Start glibc's allocator where a warmed client's settles. glibc raises
  // its mmap threshold to the size of each large block freed, up to 32 MiB
  // on 64-bit, and its trim threshold to twice that. A client backing up
  // real files holds each whole file in memory (snapshot_from_directory
  // reads up to 256 MiB), so one file of 32 MiB or more takes it to that
  // ceiling. The generated files stop at 8 MiB and would never get there:
  // left adaptive, the thresholds stopped at levels set by each seed's
  // allocation order, and throughput varied by up to 14% between seeds.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
#endif
  const Args args = parse_args(argc, argv);
  const WorkloadSpec spec = make_spec(args.workload, args.scale, args.seed);
  const std::string host = host_facts(spec);

  Outcome outcome;
  std::vector<Metric> metrics;
  std::size_t rounds = 0;
  try {
    metrics = args.trace ? traced(args, spec, outcome, rounds, host)
                         : end_to_end(args, spec, outcome, rounds);
  } catch (const std::exception& e) {
    outcome.check(false, std::string("benchmark aborted: ") + e.what());
  }
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      outcome.check(false, metric.name + " is not finite");
    }
  }

  std::string notes = "[";
  for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += json_string(outcome.notes[i]);
  }
  notes += "]";
  std::printf("{\"host\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"rounds\": %zu, \"failures\": %s}\n",
              host.c_str(), json_string(args.workload_name).c_str(),
              static_cast<unsigned long long>(args.seed), rounds,
              notes.c_str());

  std::string result = "{\"correct\": ";
  result += outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      outcome.attempted, 1));
  result += ", \"failed\": " + std::to_string(outcome.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ", ";
    result += json_string(metrics[i].name) + ": {\"value\": " +
              number(metrics[i].value) +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
