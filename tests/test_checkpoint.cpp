// Crash-safe checkpointing and trial supervision (DESIGN.md §12): journal
// round-trips, crash-tail tolerance, corruption rejection, bit-identical
// resume at any --jobs width (with and without faults and metrics),
// deterministic re-execution, graceful stop, and the CKP diagnostics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/verify_checkpoint.hpp"
#include "common/atomic_file.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/interrupt.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "system/checkpoint.hpp"
#include "system/experiment.hpp"
#include "system/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/metrics_io.hpp"
#include "telemetry/prometheus.hpp"

namespace ioguard::sys {
namespace {

namespace fs = std::filesystem;

// ---- fixture: every test gets a private scratch directory ------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("ioguard_ckpt_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

CheckpointMeta test_meta() {
  CheckpointMeta meta;
  meta.config_echo = "test config echo";
  meta.fingerprint = fnv1a64(meta.config_echo);
  meta.planned_trials = 4;
  return meta;
}

TrialConfig small_trial(std::size_t t, const faults::FaultPlan& plan = {}) {
  TrialConfig tc;
  tc.kind = SystemKind::kIoGuard;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.8;
  tc.workload.preload_fraction = 0.5;
  tc.min_jobs_per_task = 8;
  tc.trial_seed = mix_seed(42, sweep_point_key(4, 0.8), t);
  tc.faults = plan;
  return tc;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.jobs_counted, b.jobs_counted);
  EXPECT_EQ(a.jobs_on_time, b.jobs_on_time);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.critical_misses, b.critical_misses);
  EXPECT_EQ(a.dropped, b.dropped);
  // Bitwise double equality: restored state must be exact, not approximate.
  EXPECT_EQ(a.goodput_bytes_per_s, b.goodput_bytes_per_s);
  EXPECT_EQ(a.device_busy_frac, b.device_busy_frac);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.misses_by_task, b.misses_by_task);
  EXPECT_EQ(a.response_slots.samples(), b.response_slots.samples());
  EXPECT_EQ(a.stage_issue.count(), b.stage_issue.count());
  EXPECT_EQ(a.stage_issue.mean(), b.stage_issue.mean());
  EXPECT_EQ(a.stage_vmm.count(), b.stage_vmm.count());
  EXPECT_EQ(a.stage_transit.mean(), b.stage_transit.mean());
  EXPECT_EQ(a.stage_backend.mean(), b.stage_backend.mean());
  EXPECT_EQ(a.faults.injected_total, b.faults.injected_total);
  EXPECT_EQ(a.faults.watchdog_aborts, b.faults.watchdog_aborts);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
}

std::string prometheus_text(const telemetry::MetricsRegistry& reg) {
  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  return std::move(os).str();
}

// ---- checksum primitives ---------------------------------------------------

TEST(Checksum, Crc32MatchesKnownVector) {
  // The CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Checksum, Fnv1a64IsStable) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
}

// ---- OnlineStats raw state round trip --------------------------------------

TEST(OnlineStatsRaw, RoundTripsExactly) {
  OnlineStats s;
  for (double x : {3.5, -1.25, 7.0, 0.125}) s.add(x);
  const OnlineStats restored = OnlineStats::from_raw(s.raw());
  EXPECT_EQ(restored.count(), s.count());
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.raw().m2, s.raw().m2);
  EXPECT_EQ(restored.min(), s.min());
  EXPECT_EQ(restored.max(), s.max());
}

TEST(OnlineStatsRaw, EmptyRoundTripsExactly) {
  const OnlineStats restored = OnlineStats::from_raw(OnlineStats{}.raw());
  EXPECT_EQ(restored.count(), 0u);
  // Continuing to accumulate after a restore behaves like a fresh object.
  OnlineStats cont = restored;
  cont.add(2.0);
  EXPECT_EQ(cont.min(), 2.0);
  EXPECT_EQ(cont.max(), 2.0);
}

// ---- atomic file writes ----------------------------------------------------

class AtomicFileTest : public CheckpointTest {};

TEST_F(AtomicFileTest, WriteFileAtomicPublishesContentAndNoTempRemains) {
  const std::string target = path("out.txt");
  ASSERT_TRUE(write_file_atomic(target, "hello\n").ok());
  std::ifstream in(target);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "hello\n");
  for (const auto& entry : fs::directory_iterator(dir_))
    EXPECT_EQ(entry.path().filename().string().find(atomic_temp_marker()),
              std::string::npos);
}

TEST_F(AtomicFileTest, WriterCommitReplacesExistingFile) {
  const std::string target = path("out.txt");
  ASSERT_TRUE(write_file_atomic(target, "old").ok());
  AtomicFileWriter w(target);
  w.stream() << "new contents";
  ASSERT_TRUE(w.commit().ok());
  std::ifstream in(target);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "new contents");
}

/// The staging file a writer in this process uses for `target`.
std::string staging_path(const std::string& target) {
  return target + std::string(atomic_temp_marker()) +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(AtomicFileTest, WriterStreamsIntoTheStagingFileAndCommitPublishes) {
  const std::string target = path("trace.json");
  AtomicFileWriter w(target);
  w.stream() << "streamed" << std::flush;
  // The bytes are on disk before commit, not held in memory.
  EXPECT_EQ(read_file(staging_path(target)), "streamed");
  EXPECT_FALSE(fs::exists(target));
  w.stream() << " artifact";
  ASSERT_TRUE(w.commit().ok());
  EXPECT_EQ(read_file(target), "streamed artifact");
  EXPECT_FALSE(fs::exists(staging_path(target)));
  EXPECT_TRUE(find_orphaned_temp_files(dir_.string()).empty());
}

TEST_F(AtomicFileTest, WriterDestroyedWithoutCommitLeavesNoFile) {
  const std::string target = path("abandoned.json");
  {
    AtomicFileWriter w(target);
    w.stream() << "partial" << std::flush;
    ASSERT_TRUE(fs::exists(staging_path(target)));
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(staging_path(target)));
  EXPECT_TRUE(find_orphaned_temp_files(dir_.string()).empty());
}

TEST_F(AtomicFileTest, UnopenableStagingPathFailsCommitAndKeepsTarget) {
  const std::string target = path("out.txt");
  ASSERT_TRUE(write_file_atomic(target, "old").ok());
  // A directory where the staging file would go cannot be opened for
  // writing (permissions would not stop a root test run).
  fs::create_directory(staging_path(target));
  {
    AtomicFileWriter w(target);
    w.stream() << "new contents";
    const Status st = w.commit();
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  }
  EXPECT_EQ(read_file(target), "old");
  // The writer removes only a staging file it created.
  EXPECT_TRUE(fs::is_directory(staging_path(target)));
  EXPECT_EQ(write_file_atomic("", "x").code(), StatusCode::kInvalidArgument);
}

TEST_F(AtomicFileTest, OrphanScanFindsPlantedStagingFile) {
  const std::string orphan =
      (dir_ / (std::string(atomic_temp_marker()) + "1234")).string();
  std::ofstream(orphan) << "partial";
  const auto found = find_orphaned_temp_files(dir_.string());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].find(atomic_temp_marker()), std::string::npos);
}

// ---- metrics encode/decode -------------------------------------------------

TEST(MetricsIo, RegistryRoundTripsToIdenticalPrometheusText) {
  telemetry::MetricsRegistry reg;
  reg.counter("ioguard_jobs_total", {{"vm", "0"}}).inc(17);
  reg.counter("ioguard_jobs_total", {{"vm", "1"}}).inc(3);
  reg.gauge("ioguard_backlog").set(2.5);
  auto& h = reg.histogram("ioguard_stage_latency_slots", {},
                          telemetry::default_slot_buckets());
  for (double x : {1.0, 3.0, 700.0, 0.5}) h.observe(x);

  std::string blob;
  telemetry::encode_metrics(reg, blob);
  telemetry::MetricsRegistry restored;
  ASSERT_TRUE(telemetry::decode_metrics(blob, restored).ok());
  EXPECT_EQ(prometheus_text(restored), prometheus_text(reg));
}

TEST(MetricsIo, DecodeRejectsCorruptBlob) {
  telemetry::MetricsRegistry reg;
  reg.counter("ioguard_jobs_total").inc(1);
  std::string blob;
  telemetry::encode_metrics(reg, blob);
  blob.resize(blob.size() / 2);  // truncation
  telemetry::MetricsRegistry sink;
  EXPECT_EQ(telemetry::decode_metrics(blob, sink).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(telemetry::decode_metrics("garbage", sink).code(),
            StatusCode::kDataLoss);
}

// ---- journal basics --------------------------------------------------------

class JournalTest : public CheckpointTest {};

TEST_F(JournalTest, RoundTripsRecordsAcrossReopen) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  TrialResult r0 = run_trial(small_trial(0));
  TrialResult r1 = run_trial(small_trial(1));

  telemetry::MetricsRegistry metrics;
  metrics.counter("ioguard_jobs_total").inc(9);
  {
    auto journal = CheckpointJournal::open(ck, meta, /*resume=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->append(7, 0, false, r0, &metrics).ok());
    ASSERT_TRUE((*journal)->append(7, 1, false, r1, nullptr).ok());
  }

  auto journal = CheckpointJournal::open(ck, meta, /*resume=*/true);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ((*journal)->loaded(), 2u);
  EXPECT_FALSE((*journal)->truncated_tail());

  const CheckpointRecord* rec0 = (*journal)->find(7, 0);
  ASSERT_NE(rec0, nullptr);
  EXPECT_TRUE(rec0->has_metrics);
  expect_identical(rec0->result, r0);
  telemetry::MetricsRegistry restored;
  ASSERT_TRUE(telemetry::decode_metrics(rec0->metrics_blob, restored).ok());
  EXPECT_EQ(prometheus_text(restored), prometheus_text(metrics));

  const CheckpointRecord* rec1 = (*journal)->find(7, 1);
  ASSERT_NE(rec1, nullptr);
  EXPECT_FALSE(rec1->has_metrics);
  expect_identical(rec1->result, r1);
  EXPECT_EQ((*journal)->find(7, 2), nullptr);
  EXPECT_EQ((*journal)->find(8, 0), nullptr);
}

TEST_F(JournalTest, FreshOpenDiscardsExistingRecords) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  {
    auto j = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(1, 0, false, TrialResult{}, nullptr).ok());
  }
  {
    auto j = CheckpointJournal::open(ck, meta, false);  // fresh again
    ASSERT_TRUE(j.ok());
    EXPECT_EQ((*j)->loaded(), 0u);
  }
  auto j = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->loaded(), 0u);
}

TEST_F(JournalTest, ToleratesTruncatedTailFrame) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  {
    auto j = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(j.ok());
    for (std::uint32_t t = 0; t < 3; ++t)
      ASSERT_TRUE(
          (*j)->append(1, t, false, run_trial(small_trial(t)), nullptr).ok());
  }
  // Chop a few bytes off the last frame: the crash-mid-append signature.
  fs::resize_file(ck, fs::file_size(ck) - 5);

  auto j = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(j.ok()) << j.status();
  EXPECT_EQ((*j)->loaded(), 2u);
  EXPECT_TRUE((*j)->truncated_tail());
  EXPECT_NE((*j)->find(1, 0), nullptr);
  EXPECT_NE((*j)->find(1, 1), nullptr);
  EXPECT_EQ((*j)->find(1, 2), nullptr);

  // The resumed journal must stay appendable: the torn tail was physically
  // dropped, so the next frame starts at a clean boundary.
  ASSERT_TRUE(
      (*j)->append(1, 2, false, run_trial(small_trial(2)), nullptr).ok());
  j->reset();
  auto again = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->loaded(), 3u);
  EXPECT_FALSE((*again)->truncated_tail());
}

TEST_F(JournalTest, RejectsChecksumCorruptionInRetainedPrefix) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  {
    auto j = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(j.ok());
    for (std::uint32_t t = 0; t < 2; ++t)
      ASSERT_TRUE(
          (*j)->append(1, t, false, run_trial(small_trial(t)), nullptr).ok());
  }
  // Flip one payload byte inside the first record.
  std::fstream f(ck, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(16);
  char b = 0;
  f.seekg(16);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(16);
  f.write(&b, 1);
  f.close();

  auto j = CheckpointJournal::open(ck, meta, true);
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kDataLoss);
}

TEST_F(JournalTest, RefusesMismatchedFingerprintWithCkp002) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  CheckpointMeta other = test_meta();
  other.fingerprint ^= 1;
  auto j = CheckpointJournal::open(ck, other, true);
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(j.status().message().find("CKP002"), std::string::npos);
}

TEST_F(JournalTest, ResumeWithoutManifestIsNotFound) {
  auto j = CheckpointJournal::open(path("absent.bin"), test_meta(), true);
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kNotFound);
}

std::string read_bytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_bytes(const std::string& file, const std::string& bytes) {
  // IOGUARD_LINT_ALLOW(LNT005: deliberately rewritten fixture file)
  std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
}

/// Rewrites a journal's manifest as if an older build had written it.
void mark_manifest_v2(const std::string& journal) {
  std::string manifest = read_bytes(journal + ".manifest");
  const std::string v3 = "ioguard-checkpoint-v3";
  ASSERT_EQ(manifest.rfind(v3, 0), 0u) << manifest;
  manifest.replace(0, v3.size(), "ioguard-checkpoint-v2");
  write_bytes(journal + ".manifest", manifest);
}

TEST_F(JournalTest, RefusesAnOlderFormatByName) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  mark_manifest_v2(ck);
  auto j = CheckpointJournal::open(ck, test_meta(), true);
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kDataLoss);
  const std::string& message = j.status().message();
  EXPECT_NE(message.find("format ioguard-checkpoint-v2 found"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("this build reads ioguard-checkpoint-v3"),
            std::string::npos)
      << message;
}

/// Recomputes the CRC of a journal's first frame after its payload changed.
void reseal_first_frame(std::string& bytes) {
  ByteReader header(std::string_view(bytes).substr(4, 4));
  const std::uint32_t len = header.get_u32();
  ASSERT_GE(bytes.size(), 8u + len + 4u);
  std::string crc;
  ByteWriter(&crc).put_u32(crc32(std::string_view(bytes).substr(8, len)));
  bytes.replace(8 + len, 4, crc);
}

TEST_F(JournalTest, RejectsHistogramsNoRecorderCanProduce) {
  // One record whose only jitter is a P-channel histogram holding the value
  // 5: total 1, sum 5, max 5, none beyond the top, one bucket (5, count 1).
  TrialResult result;
  result.jitter.collected = true;
  result.jitter.p_by_vm.resize(1);
  result.jitter.p_by_vm[0].record(5);
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(1, 0, false, result, nullptr).ok());
  }
  const std::string good = read_bytes(ck);
  std::string block;
  ByteWriter w(&block);
  for (const std::uint64_t v : {1u, 5u, 5u, 0u}) w.put_u64(v);
  w.put_u8(1);
  w.put_u8(5);
  w.put_u64(1);
  const std::size_t at = good.find(block);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(good.find(block, at + 1), std::string::npos);
  const std::size_t index_at = at + 33;  // after four u64s and the pair count

  const auto resume = [&](const std::string& bytes) {
    write_bytes(ck, bytes);
    return CheckpointJournal::open(ck, test_meta(), true);
  };
  {
    std::string same = good;
    reseal_first_frame(same);
    auto j = resume(same);
    ASSERT_TRUE(j.ok()) << j.status();
    const CheckpointRecord* rec = (*j)->find(1, 0);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->result.jitter.p_by_vm.size(), 1u);
    EXPECT_TRUE(rec->result.jitter.p_by_vm[0] == result.jitter.p_by_vm[0]);
  }
  for (const std::uint8_t index : {184, 255}) {
    std::string bytes = good;
    bytes[index_at] = static_cast<char>(index);
    reseal_first_frame(bytes);
    auto j = resume(bytes);
    ASSERT_FALSE(j.ok()) << "bucket index " << int{index};
    EXPECT_EQ(j.status().code(), StatusCode::kDataLoss);
  }
  {
    std::string bytes = good;
    bytes[index_at + 1] = 2;  // bucket count 2 against a total of 1
    reseal_first_frame(bytes);
    auto j = resume(bytes);
    ASSERT_FALSE(j.ok());
    EXPECT_EQ(j.status().code(), StatusCode::kDataLoss);
  }
}

// ---- point keys and fingerprints -------------------------------------------

TEST(CheckpointKeys, DistinguishWhatSweepPointKeyCannot) {
  // sweep_point_key deliberately collides across systems (same workloads);
  // the journal key must not, or fig7's five systems would share records.
  EXPECT_EQ(sweep_point_key(8, 0.9), sweep_point_key(8, 0.9));
  EXPECT_NE(checkpoint_point_key(SystemKind::kLegacy, 0.0, 8, 0.9),
            checkpoint_point_key(SystemKind::kIoGuard, 0.0, 8, 0.9));
  EXPECT_NE(checkpoint_point_key(SystemKind::kIoGuard, 0.4, 8, 0.9),
            checkpoint_point_key(SystemKind::kIoGuard, 0.7, 8, 0.9));
  EXPECT_NE(checkpoint_point_key(SystemKind::kIoGuard, 0.7, 8, 0.9, 0),
            checkpoint_point_key(SystemKind::kIoGuard, 0.7, 8, 0.9, 1));
  EXPECT_EQ(checkpoint_point_key(SystemKind::kIoGuard, 0.7, 8, 0.9),
            checkpoint_point_key(SystemKind::kIoGuard, 0.7, 8, 0.9));
}

TEST(CheckpointKeys, ConfigStringCoversEverythingButJobs) {
  const faults::ResilienceConfig res;
  const auto base = point_config_string(SystemKind::kIoGuard, 8, 0.9, 0.7, 10,
                                        25, 42, {}, res);
  EXPECT_NE(base, point_config_string(SystemKind::kLegacy, 8, 0.9, 0.0, 10,
                                      25, 42, {}, res));
  EXPECT_NE(base, point_config_string(SystemKind::kIoGuard, 8, 0.9, 0.7, 11,
                                      25, 42, {}, res));
  EXPECT_NE(base, point_config_string(SystemKind::kIoGuard, 8, 0.9, 0.7, 10,
                                      25, 43, {}, res));
  auto plan = faults::FaultPlan::parse("device-stall");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(base, point_config_string(SystemKind::kIoGuard, 8, 0.9, 0.7, 10,
                                      25, 42, *plan, res));
}

// ---- supervised resume: the bit-identity contract --------------------------

class ResumeTest : public CheckpointTest {};

void expect_resume_bit_identity(const fs::path& dir,
                                const faults::FaultPlan& plan,
                                bool with_metrics) {
  const std::string ck = (dir / "ck.bin").string();
  const auto meta = test_meta();
  const std::size_t n = 6;
  const auto make_config = [&](std::size_t t) { return small_trial(t, plan); };

  // Uninterrupted baseline at jobs=1.
  ParallelRunner baseline_runner(1);
  telemetry::MetricsRegistry baseline_metrics;
  const BatchResult baseline = baseline_runner.run_supervised(
      n, make_config, {}, with_metrics ? &baseline_metrics : nullptr,
      nullptr);
  ASSERT_EQ(baseline.completed, n);

  // "Crashed" first pass: journal only the first 3 trials.
  {
    auto journal = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(journal.ok());
    SupervisionPolicy policy;
    policy.journal = journal->get();
    policy.point_key = 77;
    telemetry::MetricsRegistry partial;
    ParallelRunner runner(2);
    const BatchResult first = runner.run_supervised(
        3, make_config, policy, with_metrics ? &partial : nullptr, nullptr);
    ASSERT_EQ(first.completed, 3u);
    ASSERT_TRUE(first.journal_error.ok()) << first.journal_error;
  }

  // Resume at two widths; both must reproduce the baseline bit for bit.
  // The first pass (jobs=1) finishes and journals the remaining trials, so
  // the second pass (jobs=4) is fully restored -- it re-runs nothing.
  bool fully_restored = false;
  for (std::size_t jobs : {1u, 4u}) {
    auto journal = CheckpointJournal::open(ck, meta, true);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ((*journal)->loaded(), fully_restored ? n : 3u);
    SupervisionPolicy policy;
    policy.journal = journal->get();
    policy.point_key = 77;
    telemetry::MetricsRegistry resumed_metrics;
    ParallelRunner runner(jobs);
    const BatchResult resumed = runner.run_supervised(
        n, make_config, policy, with_metrics ? &resumed_metrics : nullptr,
        nullptr);
    ASSERT_TRUE(resumed.journal_error.ok()) << resumed.journal_error;
    EXPECT_EQ(resumed.restored, fully_restored ? n : 3u);
    EXPECT_EQ(resumed.completed, fully_restored ? 0u : 3u);
    ASSERT_EQ(resumed.results.size(), n);
    for (std::size_t t = 0; t < n; ++t) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " trial " +
                   std::to_string(t));
      EXPECT_EQ(resumed.outcomes[t], (fully_restored || t < 3)
                                         ? TrialOutcome::kRestored
                                         : TrialOutcome::kCompleted);
      expect_identical(resumed.results[t], baseline.results[t]);
    }
    fully_restored = true;
    if (with_metrics) {
      EXPECT_EQ(prometheus_text(resumed_metrics),
                prometheus_text(baseline_metrics));
    }
  }
}

TEST_F(ResumeTest, BitIdenticalAcrossJobsWithMetrics) {
  expect_resume_bit_identity(dir_, {}, /*with_metrics=*/true);
}

TEST_F(ResumeTest, BitIdenticalWithoutMetrics) {
  expect_resume_bit_identity(dir_, {}, /*with_metrics=*/false);
}

TEST_F(ResumeTest, BitIdenticalUnderFaultPlan) {
  auto plan = faults::FaultPlan::parse("device-stall");
  ASSERT_TRUE(plan.ok());
  expect_resume_bit_identity(dir_, *plan, /*with_metrics=*/true);
}

TEST_F(ResumeTest, RecordWithoutMetricsIsReExecutedWhenMetricsNeeded) {
  // First pass journals without a metrics registry; the resuming run wants
  // metrics, so the journaled record is insufficient and the trial must be
  // deterministically re-executed rather than restored without its delta.
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  const auto make_config = [](std::size_t t) { return small_trial(t); };
  {
    auto journal = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(journal.ok());
    SupervisionPolicy policy;
    policy.journal = journal->get();
    policy.point_key = 5;
    ParallelRunner runner(1);
    (void)runner.run_supervised(2, make_config, policy, nullptr, nullptr);
  }
  auto journal = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(journal.ok());
  SupervisionPolicy policy;
  policy.journal = journal->get();
  policy.point_key = 5;
  telemetry::MetricsRegistry metrics;
  ParallelRunner runner(1);
  const BatchResult batch =
      runner.run_supervised(2, make_config, policy, &metrics, nullptr);
  EXPECT_EQ(batch.restored, 0u);
  EXPECT_EQ(batch.completed, 2u);

  // And the re-executed pass wrote metrics-bearing records: a second resume
  // with metrics restores both.
  journal = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(journal.ok());
  policy.journal = journal->get();
  telemetry::MetricsRegistry metrics2;
  const BatchResult batch2 =
      runner.run_supervised(2, make_config, policy, &metrics2, nullptr);
  EXPECT_EQ(batch2.restored, 2u);
  EXPECT_EQ(prometheus_text(metrics2), prometheus_text(metrics));
}

// ---- supervision: retries, abandonment, stop, deadline ---------------------

TEST(Supervision, RetriedTrialIsBitIdenticalToCleanRun) {
  const auto make_config = [](std::size_t t) { return small_trial(t); };
  ParallelRunner runner(2);
  const BatchResult clean =
      runner.run_supervised(4, make_config, {}, nullptr, nullptr);

  std::atomic<int> throws_left{1};
  SupervisionPolicy policy;
  policy.trial_fn = [&](const TrialConfig& tc) {
    if (tc.trial_seed == small_trial(2).trial_seed &&
        throws_left.fetch_sub(1) > 0)
      throw std::runtime_error("transient trial failure");
    return run_trial(tc);
  };
  const BatchResult flaky =
      runner.run_supervised(4, make_config, policy, nullptr, nullptr);
  EXPECT_EQ(flaky.retried, 1u);
  EXPECT_EQ(flaky.completed, 3u);
  EXPECT_EQ(flaky.outcomes[2], TrialOutcome::kRetried);
  for (std::size_t t = 0; t < 4; ++t)
    expect_identical(flaky.results[t], clean.results[t]);
}

TEST(Supervision, ExhaustedAttemptsAbandonWithoutAborting) {
  const auto make_config = [](std::size_t t) { return small_trial(t); };
  SupervisionPolicy policy;
  policy.max_attempts = 3;
  policy.trial_fn = [](const TrialConfig& tc) -> TrialResult {
    if (tc.trial_seed == small_trial(1).trial_seed)
      throw std::runtime_error("persistent failure");
    return run_trial(tc);
  };
  ParallelRunner runner(2);
  const BatchResult batch =
      runner.run_supervised(3, make_config, policy, nullptr, nullptr);
  EXPECT_EQ(batch.abandoned, 1u);
  EXPECT_EQ(batch.completed, 2u);
  EXPECT_EQ(batch.outcomes[1], TrialOutcome::kAbandoned);
  ASSERT_FALSE(batch.notes.empty());
  EXPECT_NE(batch.notes[0].find("persistent failure"), std::string::npos);
}

class SupervisionJournalTest : public CheckpointTest {};

TEST_F(SupervisionJournalTest, AbandonedTrialsAreJournaledAndCarriedOver) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  const auto make_config = [](std::size_t t) { return small_trial(t); };
  {
    auto journal = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(journal.ok());
    SupervisionPolicy policy;
    policy.journal = journal->get();
    policy.point_key = 9;
    policy.trial_fn = [](const TrialConfig& tc) -> TrialResult {
      if (tc.trial_seed == small_trial(0).trial_seed)
        throw std::runtime_error("hard failure");
      return run_trial(tc);
    };
    ParallelRunner runner(1);
    const BatchResult batch =
        runner.run_supervised(2, make_config, policy, nullptr, nullptr);
    ASSERT_EQ(batch.abandoned, 1u);
    ASSERT_TRUE(batch.journal_error.ok());
  }
  // On resume the abandoned record is honoured (not silently re-run): the
  // sweep converges instead of re-failing forever.
  auto journal = CheckpointJournal::open(ck, meta, true);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->loaded(), 2u);
  SupervisionPolicy policy;
  policy.journal = journal->get();
  policy.point_key = 9;
  ParallelRunner runner(1);
  const BatchResult batch =
      runner.run_supervised(2, make_config, policy, nullptr, nullptr);
  EXPECT_EQ(batch.abandoned, 1u);
  EXPECT_EQ(batch.restored, 1u);
  EXPECT_EQ(batch.completed, 0u);
  EXPECT_EQ(batch.outcomes[0], TrialOutcome::kAbandoned);
  ASSERT_FALSE(batch.notes.empty());
  EXPECT_NE(batch.notes[0].find("journaled"), std::string::npos);
}

TEST(Supervision, StopFlagSkipsEverythingAndMarksInterrupted) {
  std::atomic<bool> stop{true};
  SupervisionPolicy policy;
  policy.stop = &stop;
  ParallelRunner runner(2);
  const BatchResult batch = runner.run_supervised(
      3, [](std::size_t t) { return small_trial(t); }, policy, nullptr,
      nullptr);
  EXPECT_EQ(batch.skipped, 3u);
  EXPECT_EQ(batch.completed, 0u);
  EXPECT_TRUE(batch.interrupted);
  for (const auto outcome : batch.outcomes)
    EXPECT_EQ(outcome, TrialOutcome::kSkipped);
}

TEST(Supervision, SoftDeadlineFlagsWedgedTrials) {
  SupervisionPolicy policy;
  policy.trial_timeout_seconds = 1e-9;  // everything real blows this
  ParallelRunner runner(1);
  const BatchResult batch = runner.run_supervised(
      2, [](std::size_t t) { return small_trial(t); }, policy, nullptr,
      nullptr);
  EXPECT_EQ(batch.wedged, 2u);
  EXPECT_EQ(batch.completed, 2u);  // flagged, never killed
  ASSERT_FALSE(batch.notes.empty());
  EXPECT_NE(batch.notes[0].find("wedged"), std::string::npos);
}

TEST(Supervision, LegacyRunTrialsStillRethrows) {
  ParallelRunner runner(1);
  SupervisionPolicy policy;
  policy.max_attempts = 1;
  policy.rethrow_on_failure = true;
  policy.trial_fn = [](const TrialConfig&) -> TrialResult {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(
      runner.run_supervised(
          1, [](std::size_t t) { return small_trial(t); }, policy, nullptr,
          nullptr),
      std::runtime_error);
}

// ---- interrupt plumbing ----------------------------------------------------

TEST(Interrupt, CancelledStatusMapsToExitCode3) {
  EXPECT_EQ(exit_code(CancelledError("interrupted")), kInterruptedExitCode);
  EXPECT_EQ(kInterruptedExitCode, 3);
}

TEST(Interrupt, GuardFlagObservesManualRequest) {
  InterruptGuard guard;
  EXPECT_FALSE(InterruptGuard::requested());
  InterruptGuard::request();
  EXPECT_TRUE(InterruptGuard::requested());
  EXPECT_TRUE(InterruptGuard::flag()->load());
}

// ---- inspection + CKP diagnostics ------------------------------------------

class VerifyCheckpointTest : public CheckpointTest {};

TEST_F(VerifyCheckpointTest, CleanPairYieldsNoFindings) {
  const std::string ck = path("ck.bin");
  const auto meta = test_meta();
  {
    auto j = CheckpointJournal::open(ck, meta, false);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(
        (*j)->append(1, 0, false, run_trial(small_trial(0)), nullptr).ok());
  }
  const CheckpointFacts facts = inspect_checkpoint(ck);
  EXPECT_TRUE(facts.journal_present);
  EXPECT_TRUE(facts.manifest_parsed);
  EXPECT_EQ(facts.records, 1u);
  analysis::Report report;
  analysis::verify_checkpoint(facts, meta.fingerprint, report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST_F(VerifyCheckpointTest, MissingManifestIsCkp001) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  fs::remove(ck + ".manifest");
  analysis::Report report;
  analysis::verify_checkpoint(inspect_checkpoint(ck), 0, report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(analysis::DiagCode::kCkpStaleManifest));
}

TEST_F(VerifyCheckpointTest, OlderFormatIsCkp001NamingBothFormats) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  // A CRC-valid frame whose payload this build cannot decode, as an older
  // format's record: corrupt under this build's manifest, but not reported
  // as such under the older one, whose records are not decoded at all.
  const std::string payload = "a record laid out by an older format";
  std::string frame;
  ByteWriter w(&frame);
  w.put_u32(0x314B5043u);  // "CPK1"
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  w.put_u32(crc32(payload));
  write_bytes(ck, frame);
  ASSERT_FALSE(inspect_checkpoint(ck).corruption.empty());
  mark_manifest_v2(ck);
  analysis::Report report;
  analysis::verify_checkpoint(inspect_checkpoint(ck), test_meta().fingerprint,
                              report);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.diagnostics().size(), 1u);
  const analysis::Diagnostic& d = report.diagnostics()[0];
  EXPECT_EQ(d.code, analysis::DiagCode::kCkpStaleManifest);
  EXPECT_NE(d.message.find("format ioguard-checkpoint-v2 found, this build "
                           "reads ioguard-checkpoint-v3"),
            std::string::npos)
      << d.message;
}

TEST_F(VerifyCheckpointTest, CorruptJournalIsCkp001NamingTheFailure) {
  // One record with a P-channel histogram holding the value 5, so a bucket
  // index can be rewritten (as in JournalTest's histogram case).
  TrialResult result;
  result.jitter.collected = true;
  result.jitter.p_by_vm.resize(1);
  result.jitter.p_by_vm[0].record(5);
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(1, 0, false, result, nullptr).ok());
  }
  const std::string good = read_bytes(ck);
  const auto ckp001 = [&](const std::string& bytes) {
    write_bytes(ck, bytes);
    analysis::Report report;
    analysis::verify_checkpoint(inspect_checkpoint(ck),
                                test_meta().fingerprint, report);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.diagnostics().size(), 1u);
    if (report.diagnostics().empty()) return std::string();
    EXPECT_EQ(report.diagnostics()[0].code,
              analysis::DiagCode::kCkpStaleManifest);
    return report.diagnostics()[0].message;
  };
  {
    std::string bytes = good;
    bytes[bytes.size() - 1] ^= 0x01;  // the first frame's stored CRC
    const std::string message = ckp001(bytes);
    EXPECT_NE(message.find("CRC mismatch in record 0"), std::string::npos)
        << message;
  }
  {
    // A CRC-valid frame whose payload does not decode: bucket index 200.
    std::string block;
    ByteWriter w(&block);
    for (const std::uint64_t v : {1u, 5u, 5u, 0u}) w.put_u64(v);
    w.put_u8(1);
    w.put_u8(5);
    const std::size_t at = good.find(block);
    ASSERT_NE(at, std::string::npos);
    std::string bytes = good;
    bytes[at + 33] = static_cast<char>(200);
    reseal_first_frame(bytes);
    const std::string message = ckp001(bytes);
    EXPECT_NE(message.find("payload is malformed"), std::string::npos)
        << message;
    EXPECT_EQ(message.find("checksum"), std::string::npos) << message;
    EXPECT_EQ(message.find("CRC"), std::string::npos) << message;
  }
}

TEST_F(VerifyCheckpointTest, FingerprintMismatchIsCkp002) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  analysis::Report report;
  analysis::verify_checkpoint(inspect_checkpoint(ck),
                              test_meta().fingerprint ^ 1, report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(analysis::DiagCode::kCkpConfigMismatch));
}

TEST_F(VerifyCheckpointTest, OrphanedTempIsCkp003Warning) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
  }
  std::ofstream(dir_ / (std::string(atomic_temp_marker()) + "999")) << "x";
  analysis::Report report;
  analysis::verify_checkpoint(inspect_checkpoint(ck), test_meta().fingerprint,
                              report);
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_TRUE(report.has(analysis::DiagCode::kCkpOrphanedTempFiles));
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST_F(VerifyCheckpointTest, AbandonedRecordsAreCkp004Warning) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(1, 0, /*abandoned=*/true, TrialResult{}, nullptr,
                             "kept throwing")
                    .ok());
  }
  const CheckpointFacts facts = inspect_checkpoint(ck);
  EXPECT_EQ(facts.abandoned, 1u);
  analysis::Report report;
  analysis::verify_checkpoint(facts, test_meta().fingerprint, report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has(analysis::DiagCode::kCkpAbandonedTrials));
}

TEST_F(VerifyCheckpointTest, TruncatedTailIsInformationalOnly) {
  const std::string ck = path("ck.bin");
  {
    auto j = CheckpointJournal::open(ck, test_meta(), false);
    ASSERT_TRUE(j.ok());
    for (std::uint32_t t = 0; t < 2; ++t)
      ASSERT_TRUE((*j)->append(1, t, false, TrialResult{}, nullptr).ok());
  }
  fs::resize_file(ck, fs::file_size(ck) - 3);
  const CheckpointFacts facts = inspect_checkpoint(ck);
  EXPECT_TRUE(facts.truncated_tail);
  EXPECT_TRUE(facts.corruption.empty());
  EXPECT_EQ(facts.records, 1u);
  analysis::Report report;
  analysis::verify_checkpoint(facts, test_meta().fingerprint, report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has(analysis::DiagCode::kCkpStaleManifest));
}

}  // namespace
}  // namespace ioguard::sys
