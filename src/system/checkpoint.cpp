#include "system/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "telemetry/metrics_io.hpp"

namespace ioguard::sys {

namespace {

// Frame layout: [magic][payload_len][payload][crc32(payload)]. The magic
// makes a torn tail distinguishable from garbage mid-file; the CRC guards
// the payload bytes the frame claims to carry.
constexpr std::uint32_t kFrameMagic = 0x314B5043u;  // "CPK1"
constexpr std::uint32_t kMaxPayload = 64u << 20;    // sanity bound, 64 MiB
constexpr std::string_view kManifestMagic = "ioguard-checkpoint-v3";
constexpr std::string_view kManifestFamily = "ioguard-checkpoint-";
// TrialConfig::validated allows at most 64 VMs and a trial has 4 devices,
// so a longer jitter series list is malformed; the bound keeps a frame from
// decoding into far more memory than it occupies.
constexpr std::uint32_t kMaxJitterSeries = 64;

constexpr std::uint8_t kFlagAbandoned = 1u << 0;
constexpr std::uint8_t kFlagHasMetrics = 1u << 1;

[[nodiscard]] std::string manifest_path_for(const std::string& path) {
  return path + ".manifest";
}

void put_online_stats(ByteWriter& w, const OnlineStats& stats) {
  const OnlineStats::Raw raw = stats.raw();
  w.put_u64(raw.n);
  w.put_f64(raw.mean);
  w.put_f64(raw.m2);
  w.put_f64(raw.min);
  w.put_f64(raw.max);
}

[[nodiscard]] OnlineStats get_online_stats(ByteReader& r) {
  OnlineStats::Raw raw;
  raw.n = r.get_u64();
  raw.mean = r.get_f64();
  raw.m2 = r.get_f64();
  raw.min = r.get_f64();
  raw.max = r.get_f64();
  return OnlineStats::from_raw(raw);
}

// SampleSets serialize in insertion order for the same reason response_slots
// does below: mean() sums sequentially, so order is part of the value.
void put_sample_set(ByteWriter& w, const SampleSet& set) {
  const auto& samples = set.samples();
  w.put_u32(static_cast<std::uint32_t>(samples.size()));
  for (const double s : samples) w.put_f64(s);
}

[[nodiscard]] SampleSet get_sample_set(ByteReader& r) {
  SampleSet set;
  const std::uint32_t n = r.get_u32();
  if (r.ok()) set.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) set.add(r.get_f64());
  return set;
}

// A histogram is its total, exact sum, clamped max and count beyond the top
// bucket, then its non-empty buckets as (u8 index, u64 count) pairs in
// ascending index order.
void put_histogram(ByteWriter& w, const HdrHistogram& h) {
  const HdrHistogram::Raw& raw = h.raw();
  w.put_u64(h.count());
  w.put_u64(raw.sum);
  w.put_u64(raw.max);
  w.put_u64(raw.beyond_top);
  const auto filled = static_cast<std::uint8_t>(
      std::count_if(raw.counts.begin(), raw.counts.end(),
                    [](std::uint64_t c) { return c != 0; }));
  w.put_u8(filled);
  for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
    if (raw.counts[i] == 0) continue;
    w.put_u8(static_cast<std::uint8_t>(i));
    w.put_u64(raw.counts[i]);
  }
}

// Fails the reader on a bucket index outside the layout or out of order,
// and on counts that do not sum to the stored total.
[[nodiscard]] HdrHistogram get_histogram(ByteReader& r) {
  HdrHistogram::Raw raw;
  const std::uint64_t total = r.get_u64();
  raw.sum = r.get_u64();
  raw.max = r.get_u64();
  raw.beyond_top = r.get_u64();
  bool valid = raw.beyond_top <= total;
  std::uint64_t counted = raw.beyond_top;
  std::size_t next = 0;  // lowest index the next pair may name
  const std::uint8_t filled = r.get_u8();
  for (std::uint8_t k = 0; k < filled && valid && r.ok(); ++k) {
    const std::size_t index = r.get_u8();
    const std::uint64_t count = r.get_u64();
    valid = index >= next && index < HdrHistogram::kBucketCount &&
            count <= total - counted;
    if (!valid) break;
    raw.counts[index] = count;
    counted += count;
    next = index + 1;
  }
  if (!valid || counted != total) r.fail();
  return HdrHistogram::from_raw(raw);
}

void put_histograms(ByteWriter& w, const std::vector<HdrHistogram>& series) {
  w.put_u32(static_cast<std::uint32_t>(series.size()));
  for (const HdrHistogram& h : series) put_histogram(w, h);
}

[[nodiscard]] std::vector<HdrHistogram> get_histograms(ByteReader& r) {
  std::vector<HdrHistogram> series;
  const std::uint32_t n = r.get_u32();
  if (n > kMaxJitterSeries) r.fail();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i)
    series.push_back(get_histogram(r));
  return series;
}

void encode_trial_result(ByteWriter& w, const TrialResult& result) {
  w.put_u64(result.horizon);
  w.put_u64(result.jobs_counted);
  w.put_u64(result.jobs_on_time);
  w.put_u64(result.misses);
  w.put_u64(result.critical_misses);
  w.put_u64(result.dropped);
  w.put_f64(result.goodput_bytes_per_s);
  w.put_f64(result.device_busy_frac);
  w.put_u8(result.admitted ? 1 : 0);
  // Insertion order matters: SampleSet::mean() sums sequentially, so a
  // reordered restore would change the last few bits of the mean.
  const auto& samples = result.response_slots.samples();
  w.put_u32(static_cast<std::uint32_t>(samples.size()));
  for (const double s : samples) w.put_f64(s);
  w.put_u32(static_cast<std::uint32_t>(result.misses_by_task.size()));
  for (const auto& [task, misses] : result.misses_by_task) {
    w.put_u32(task);
    w.put_u32(misses);
  }
  put_online_stats(w, result.stage_issue);
  put_online_stats(w, result.stage_vmm);
  put_online_stats(w, result.stage_transit);
  put_online_stats(w, result.stage_backend);
  const faults::FaultCounters& fc = result.faults;
  w.put_u64(fc.injected_total);
  w.put_u64(fc.watchdog_aborts);
  w.put_u64(fc.retries);
  w.put_u64(fc.retries_exhausted);
  w.put_u32(fc.max_retry_attempt);
  w.put_u64(fc.jobs_shed);
  w.put_u64(fc.degraded_vms);
  w.put_u64(fc.frame_faults);
  w.put_u64(fc.stalled_slots);
  w.put_u64(fc.spurious_irq_slots);
  w.put_u64(fc.transit_drops);
  w.put_u64(fc.fifo_frames_lost);
  w.put_u64(fc.fifo_stalled_slots);
  // Observability harvest, jitter as HDR histograms in cycles (v3; v2
  // journals carried every sample and are refused by the manifest magic).
  const JitterSummary& js = result.jitter;
  w.put_u8(js.collected ? 1 : 0);
  put_histograms(w, js.p_by_vm);
  put_histograms(w, js.r_by_vm);
  put_histograms(w, js.fifo_by_vm);
  put_histograms(w, js.translator_by_device);
  w.put_u32(static_cast<std::uint32_t>(js.by_task.size()));
  for (const auto& t : js.by_task) {
    w.put_u32(t.task);
    w.put_u64(t.ops);
    w.put_u64(t.worst_slots);
  }
  w.put_u32(static_cast<std::uint32_t>(result.profile.size()));
  for (const auto& c : result.profile) {
    w.put_string(c.name);
    w.put_u64(c.busy_slots);
    w.put_u64(c.stall_slots);
    w.put_u64(c.quiescent_slots);
  }
  w.put_u64(result.flight_dumps);
  // Mixed-criticality counters, appended last (added in v2: v1 journals
  // predate this block and are rejected, not misread).
  const ModeSwitchCounters& mc = result.mcs;
  w.put_u64(mc.switches_to_hi);
  w.put_u64(mc.recoveries);
  w.put_u64(mc.propagated);
  w.put_u64(mc.overruns_observed);
  w.put_u64(mc.lo_jobs_shed);
  w.put_u64(mc.lo_rejected);
  w.put_u64(mc.hi_vms_at_end);
  w.put_u64(mc.hi_misses);
  put_sample_set(w, mc.switch_latency_slots);
}

[[nodiscard]] TrialResult decode_trial_result(ByteReader& r) {
  TrialResult result;
  result.horizon = r.get_u64();
  result.jobs_counted = r.get_u64();
  result.jobs_on_time = r.get_u64();
  result.misses = r.get_u64();
  result.critical_misses = r.get_u64();
  result.dropped = r.get_u64();
  result.goodput_bytes_per_s = r.get_f64();
  result.device_busy_frac = r.get_f64();
  result.admitted = r.get_u8() != 0;
  const std::uint32_t sample_count = r.get_u32();
  if (r.ok()) result.response_slots.reserve(sample_count);
  for (std::uint32_t i = 0; i < sample_count && r.ok(); ++i)
    result.response_slots.add(r.get_f64());
  const std::uint32_t miss_count = r.get_u32();
  for (std::uint32_t i = 0; i < miss_count && r.ok(); ++i) {
    const std::uint32_t task = r.get_u32();
    const std::uint32_t misses = r.get_u32();
    result.misses_by_task.emplace_back(task, misses);
  }
  result.stage_issue = get_online_stats(r);
  result.stage_vmm = get_online_stats(r);
  result.stage_transit = get_online_stats(r);
  result.stage_backend = get_online_stats(r);
  faults::FaultCounters& fc = result.faults;
  fc.injected_total = r.get_u64();
  fc.watchdog_aborts = r.get_u64();
  fc.retries = r.get_u64();
  fc.retries_exhausted = r.get_u64();
  fc.max_retry_attempt = r.get_u32();
  fc.jobs_shed = r.get_u64();
  fc.degraded_vms = r.get_u64();
  fc.frame_faults = r.get_u64();
  fc.stalled_slots = r.get_u64();
  fc.spurious_irq_slots = r.get_u64();
  fc.transit_drops = r.get_u64();
  fc.fifo_frames_lost = r.get_u64();
  fc.fifo_stalled_slots = r.get_u64();
  JitterSummary& js = result.jitter;
  js.collected = r.get_u8() != 0;
  js.p_by_vm = get_histograms(r);
  js.r_by_vm = get_histograms(r);
  js.fifo_by_vm = get_histograms(r);
  js.translator_by_device = get_histograms(r);
  const std::uint32_t task_count = r.get_u32();
  for (std::uint32_t i = 0; i < task_count && r.ok(); ++i) {
    TaskJitter t;
    t.task = r.get_u32();
    t.ops = r.get_u64();
    t.worst_slots = r.get_u64();
    js.by_task.push_back(t);
  }
  const std::uint32_t profile_count = r.get_u32();
  for (std::uint32_t i = 0; i < profile_count && r.ok(); ++i) {
    ComponentProfile c;
    c.name = std::string(r.get_string());
    c.busy_slots = r.get_u64();
    c.stall_slots = r.get_u64();
    c.quiescent_slots = r.get_u64();
    result.profile.push_back(std::move(c));
  }
  result.flight_dumps = r.get_u64();
  ModeSwitchCounters& mc = result.mcs;
  mc.switches_to_hi = r.get_u64();
  mc.recoveries = r.get_u64();
  mc.propagated = r.get_u64();
  mc.overruns_observed = r.get_u64();
  mc.lo_jobs_shed = r.get_u64();
  mc.lo_rejected = r.get_u64();
  mc.hi_vms_at_end = r.get_u64();
  mc.hi_misses = r.get_u64();
  mc.switch_latency_slots = get_sample_set(r);
  return result;
}

[[nodiscard]] std::string encode_record(const CheckpointRecord& record) {
  std::string payload;
  ByteWriter w(&payload);
  w.put_u64(record.point_key);
  w.put_u32(record.trial);
  std::uint8_t flags = 0;
  if (record.abandoned) flags |= kFlagAbandoned;
  if (record.has_metrics) flags |= kFlagHasMetrics;
  w.put_u8(flags);
  encode_trial_result(w, record.result);
  w.put_string(record.note);
  if (record.has_metrics) w.put_string(record.metrics_blob);
  return payload;
}

[[nodiscard]] StatusOr<CheckpointRecord> decode_record(
    std::string_view payload) {
  ByteReader r(payload);
  CheckpointRecord record;
  record.point_key = r.get_u64();
  record.trial = r.get_u32();
  const std::uint8_t flags = r.get_u8();
  record.abandoned = (flags & kFlagAbandoned) != 0;
  record.has_metrics = (flags & kFlagHasMetrics) != 0;
  record.result = decode_trial_result(r);
  record.note = std::string(r.get_string());
  if (record.has_metrics) record.metrics_blob = std::string(r.get_string());
  if (!r.ok() || !r.at_end())
    return DataLossError("checkpoint record payload is malformed");
  return record;
}

/// Outcome of scanning the journal byte stream.
struct JournalScan {
  std::vector<CheckpointRecord> records;
  std::size_t valid_bytes = 0;  ///< prefix length covered by intact frames
  bool truncated_tail = false;
  Status corrupt = OkStatus();  ///< DataLoss when a retained frame fails
};

[[nodiscard]] JournalScan scan_journal(std::string_view bytes) {
  JournalScan scan;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    scan.valid_bytes = pos;
    ByteReader header(bytes.substr(pos));
    const std::uint32_t magic = header.get_u32();
    const std::uint32_t len = header.get_u32();
    if (!header.ok()) {  // partial frame header: crash mid-append
      scan.truncated_tail = true;
      return scan;
    }
    if (magic != kFrameMagic || len > kMaxPayload) {
      scan.corrupt = DataLossError(
          "checkpoint journal: bad frame magic at byte offset " +
          std::to_string(pos));
      return scan;
    }
    const std::size_t frame_size = 4 + 4 + static_cast<std::size_t>(len) + 4;
    if (bytes.size() - pos < frame_size) {  // partial payload or CRC
      scan.truncated_tail = true;
      return scan;
    }
    const std::string_view payload = bytes.substr(pos + 8, len);
    ByteReader crc_reader(bytes.substr(pos + 8 + len, 4));
    const std::uint32_t stored_crc = crc_reader.get_u32();
    if (crc32(payload) != stored_crc) {
      scan.corrupt = DataLossError(
          "checkpoint journal: CRC mismatch in record " +
          std::to_string(scan.records.size()) + " (byte offset " +
          std::to_string(pos) + "); the journal is corrupt, not truncated");
      return scan;
    }
    auto record = decode_record(payload);
    if (!record.ok()) {
      scan.corrupt = record.status();
      return scan;
    }
    scan.records.push_back(std::move(record).value());
    pos += frame_size;
  }
  scan.valid_bytes = pos;
  return scan;
}

[[nodiscard]] StatusOr<std::string> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

[[nodiscard]] std::string render_manifest(const CheckpointMeta& meta) {
  std::ostringstream os;
  os << kManifestMagic << "\n";
  os << "fingerprint " << std::hex << meta.fingerprint << std::dec << "\n";
  os << "trials " << meta.planned_trials << "\n";
  os << "config " << meta.config_echo << "\n";
  return std::move(os).str();
}

[[nodiscard]] StatusOr<CheckpointMeta> parse_manifest(
    const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line))
    return DataLossError("checkpoint manifest: bad or missing magic line");
  if (line != kManifestMagic) {
    if (line.rfind(kManifestFamily, 0) != 0)
      return DataLossError("checkpoint manifest: bad or missing magic line");
    return DataLossError("checkpoint manifest: format " + line +
                         " found, this build reads " +
                         std::string(kManifestMagic) +
                         "; start a fresh checkpoint");
  }
  CheckpointMeta meta;
  bool have_fingerprint = false;
  while (std::getline(is, line)) {
    if (line.rfind("fingerprint ", 0) == 0) {
      meta.fingerprint = std::strtoull(line.c_str() + 12, nullptr, 16);
      have_fingerprint = true;
    } else if (line.rfind("trials ", 0) == 0) {
      meta.planned_trials = std::strtoull(line.c_str() + 7, nullptr, 10);
    } else if (line.rfind("config ", 0) == 0) {
      meta.config_echo = line.substr(7);
    }
  }
  if (!have_fingerprint)
    return DataLossError("checkpoint manifest: no fingerprint line");
  return meta;
}

}  // namespace

struct CheckpointJournal::Sink {
  // IOGUARD_LINT_ALLOW(LNT005: append-only journal -- rename cannot append)
  std::ofstream out;  // torn tails are healed by the reader's line scan
};

CheckpointJournal::~CheckpointJournal() = default;

StatusOr<std::unique_ptr<CheckpointJournal>> CheckpointJournal::open(
    const std::string& path, const CheckpointMeta& meta, bool resume) {
  if (path.empty())
    return InvalidArgumentError("checkpoint path must not be empty");
  const std::string manifest_path = manifest_path_for(path);
  std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
  journal->path_ = path;

  if (resume) {
    auto manifest_text = read_all(manifest_path);
    if (!manifest_text.ok())
      return NotFoundError("--resume: no manifest at " + manifest_path +
                           " (was this sweep ever started with "
                           "--checkpoint?)");
    IOGUARD_ASSIGN_OR_RETURN(const CheckpointMeta on_disk,
                             parse_manifest(*manifest_text));
    if (on_disk.fingerprint != meta.fingerprint)
      return FailedPreconditionError(
          "CKP002: checkpoint " + path +
          " was written under a different configuration (journal: '" +
          on_disk.config_echo + "', requested: '" + meta.config_echo +
          "'); rerun with matching flags or start a fresh checkpoint");
    auto bytes = read_all(path);
    if (bytes.ok()) {
      JournalScan scan = scan_journal(*bytes);
      IOGUARD_RETURN_IF_ERROR(scan.corrupt);
      journal->truncated_tail_ = scan.truncated_tail;
      if (scan.truncated_tail) {
        // Drop the partial frame physically too, so this run's appends
        // produce a journal indistinguishable from a clean one.
        std::error_code ec;
        std::filesystem::resize_file(path, scan.valid_bytes, ec);
        if (ec)
          return UnavailableError("cannot drop truncated tail of " + path +
                                  ": " + ec.message());
      }
      for (auto& record : scan.records) {
        const auto key = std::make_pair(record.point_key, record.trial);
        journal->records_[key] = std::move(record);
      }
    }
  } else {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(manifest_path, ec);
  }

  // The manifest is (re)published atomically on every open: a fresh run
  // records its config before the first trial lands, and a resumed run
  // refreshes mtime ordering so manifest-older-than-journal means stale.
  IOGUARD_RETURN_IF_ERROR(
      write_file_atomic(manifest_path, render_manifest(meta)));

  const MutexLock lock(journal->mutex_);
  journal->sink_ = std::make_unique<Sink>();
  journal->sink_->out.open(path, std::ios::binary | std::ios::app);
  if (!journal->sink_->out)
    return UnavailableError("cannot open checkpoint journal " + path +
                            " for appending");
  return journal;
}

const CheckpointRecord* CheckpointJournal::find(std::uint64_t point_key,
                                                std::uint32_t trial) const {
  const auto it = records_.find(std::make_pair(point_key, trial));
  return it == records_.end() ? nullptr : &it->second;
}

Status CheckpointJournal::append(std::uint64_t point_key, std::uint32_t trial,
                                 bool abandoned, const TrialResult& result,
                                 const telemetry::MetricsRegistry* metrics,
                                 const std::string& note) {
  CheckpointRecord record;
  record.point_key = point_key;
  record.trial = trial;
  record.abandoned = abandoned;
  record.note = note;
  record.result = result;
  if (metrics) {
    record.has_metrics = true;
    telemetry::encode_metrics(*metrics, record.metrics_blob);
  }
  const std::string payload = encode_record(record);

  std::string frame;
  ByteWriter w(&frame);
  w.put_u32(kFrameMagic);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  ByteWriter crc_writer(&frame);
  crc_writer.put_u32(crc32(payload));

  const MutexLock lock(mutex_);
  sink_->out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  sink_->out.flush();
  if (!sink_->out)
    return UnavailableError("short write to checkpoint journal " + path_);
  ++appended_;
  if (crash_after_ != 0 && appended_ >= crash_after_) {
    // Simulated SIGKILL: no unwinding, no destructor flushes. The record
    // just written is durable; anything in flight is lost, exactly like a
    // real kill at a trial boundary.
    std::_Exit(kCrashHookExitCode);
  }
  return OkStatus();
}

CheckpointFacts inspect_checkpoint(const std::string& path) {
  CheckpointFacts facts;
  const std::string manifest_path = manifest_path_for(path);

  auto manifest_text = read_all(manifest_path);
  facts.manifest_present = manifest_text.ok();
  if (facts.manifest_present) {
    auto meta = parse_manifest(*manifest_text);
    facts.manifest_parsed = meta.ok();
    if (meta.ok())
      facts.meta = std::move(meta).value();
    else
      facts.manifest_error = meta.status().message();
  }

  auto bytes = read_all(path);
  facts.journal_present = bytes.ok();
  // Under a manifest this build cannot parse (an older format version) the
  // records' layout is unknown: decoding them would call a valid journal
  // corrupt.
  if (facts.journal_present &&
      (facts.manifest_parsed || !facts.manifest_present)) {
    const JournalScan scan = scan_journal(*bytes);
    facts.records = scan.records.size();
    facts.truncated_tail = scan.truncated_tail;
    facts.corruption = scan.corrupt.message();
    for (const auto& record : scan.records)
      if (record.abandoned) ++facts.abandoned;
  }

  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  facts.orphaned_temps = find_orphaned_temp_files(dir);
  return facts;
}

std::uint64_t checkpoint_point_key(SystemKind kind, double preload_fraction,
                                   std::size_t num_vms,
                                   double target_utilization,
                                   std::uint64_t salt) {
  std::ostringstream os;
  os << "point;kind=" << static_cast<int>(kind)
     << ";preload=" << std::llround(preload_fraction * 10000.0)
     << ";vms=" << num_vms
     << ";util=" << std::llround(target_utilization * 10000.0)
     << ";salt=" << salt;
  return fnv1a64(std::move(os).str());
}

std::string point_config_string(SystemKind kind, std::size_t num_vms,
                                double target_utilization,
                                double preload_fraction, std::size_t trials,
                                std::size_t min_jobs, std::uint64_t seed,
                                const faults::FaultPlan& plan,
                                const faults::ResilienceConfig& resilience,
                                bool mixed_criticality,
                                const core::ModeSwitchConfig& mode_switch) {
  std::ostringstream os;
  os << "system=" << to_string(kind) << " vms=" << num_vms
     << " util_ticks=" << std::llround(target_utilization * 10000.0)
     << " preload_ticks=" << std::llround(preload_fraction * 10000.0)
     << " trials=" << trials << " min_jobs=" << min_jobs << " seed=" << seed
     << " faults=" << (plan.empty() ? "none" : plan.spec_string())
     << " resilience=" << resilience.watchdog_timeout_slots << "/"
     << resilience.max_retries << "/" << resilience.retry_backoff_base_slots
     << "/" << resilience.degradation_threshold << "/"
     << (resilience.degradation_enabled ? 1 : 0);
  // Mixed-criticality tokens appear only when the features are on: resuming
  // a criticality-aware run under different MCS parameters changes results,
  // while pre-MCS config strings keep their exact historical bytes.
  if (mixed_criticality) os << " criticality=1";
  if (mode_switch.enabled)
    os << " mcs=" << mode_switch.overrun_threshold << "/"
       << mode_switch.recovery_hysteresis_slots << "/"
       << mode_switch.propagation_threshold << "/"
       << std::llround(mode_switch.hi_budget_factor * 10000.0);
  return std::move(os).str();
}

}  // namespace ioguard::sys
