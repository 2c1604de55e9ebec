// Tests for the tooling layer: CLI parser, event trace buffer, and the
// task-set CSV export.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "core/event_trace.hpp"
#include "core/hypervisor.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace ioguard {
namespace {

// ------------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsAndSwitchForms) {
  const char* argv[] = {"prog", "--vms=8", "--util=0.7", "--verbose",
                        "input.csv"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("vms", 0), 8);
  EXPECT_DOUBLE_EQ(args.get_double("util", 0.0), 0.7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FallbacksForMissingAndMalformed) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("n", 5), 5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_TRUE(args.has("n"));
}

TEST(Cli, BooleanSwitchValues) {
  const char* argv[] = {"prog", "--a", "--b=0", "--c=yes"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

// ----------------------------------------------------------- event trace

core::TraceEvent event(Slot slot, core::TraceEventKind kind) {
  core::TraceEvent e;
  e.slot = slot;
  e.kind = kind;
  e.device = DeviceId{0};
  e.vm = VmId{1};
  e.task = TaskId{2};
  e.job = JobId{3};
  return e;
}

TEST(EventTrace, RecordsAndCounts) {
  core::EventTrace trace(16);
  trace.record(event(1, core::TraceEventKind::kSubmit));
  trace.record(event(2, core::TraceEventKind::kComplete));
  trace.record(event(3, core::TraceEventKind::kComplete));
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.count(core::TraceEventKind::kSubmit), 1u);
  EXPECT_EQ(trace.count(core::TraceEventKind::kComplete), 2u);
  EXPECT_EQ(trace.total_recorded(), 3u);
}

TEST(EventTrace, RingOverwritesOldest) {
  core::EventTrace trace(4);
  for (Slot s = 0; s < 10; ++s)
    trace.record(event(s, core::TraceEventKind::kSubmit));
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.overwritten(), 6u);
  std::ostringstream os;
  trace.dump_csv(os);
  // Oldest surviving event is slot 6.
  EXPECT_NE(os.str().find("\n6,"), std::string::npos);
  EXPECT_EQ(os.str().find("\n5,"), std::string::npos);
}

TEST(EventTrace, OverwrittenAccountingAcrossWraps) {
  core::EventTrace trace(3);
  EXPECT_EQ(trace.overwritten(), 0u);
  for (Slot s = 0; s < 3; ++s)
    trace.record(event(s, core::TraceEventKind::kSubmit));
  EXPECT_EQ(trace.overwritten(), 0u);  // exactly full: nothing lost yet
  trace.record(event(3, core::TraceEventKind::kSubmit));
  EXPECT_EQ(trace.overwritten(), 1u);
  for (Slot s = 4; s < 10; ++s)
    trace.record(event(s, core::TraceEventKind::kSubmit));
  EXPECT_EQ(trace.overwritten(), 7u);  // 10 recorded - 3 kept
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(EventTrace, OrderedIsInsertionOrderAfterSaturation) {
  core::EventTrace trace(4);
  for (Slot s = 0; s < 11; ++s)  // head ends mid-ring, not at index 0
    trace.record(event(s, core::TraceEventKind::kSubmit));
  // ordered() must walk oldest -> newest across the wrap point: 7,8,9,10.
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(trace.ordered(i).slot, 7 + i);
  // CSV dumps in the same oldest-first order.
  std::ostringstream os;
  trace.dump_csv(os);
  const std::string csv = os.str();
  EXPECT_LT(csv.find("\n7,"), csv.find("\n8,"));
  EXPECT_LT(csv.find("\n8,"), csv.find("\n9,"));
  EXPECT_LT(csv.find("\n9,"), csv.find("\n10,"));
}

TEST(EventTrace, PerKindCountsSurviveOverwrite) {
  core::EventTrace trace(2);
  for (int i = 0; i < 5; ++i)
    trace.record(event(i, core::TraceEventKind::kSubmit));
  for (int i = 0; i < 3; ++i)
    trace.record(event(5 + i, core::TraceEventKind::kComplete));
  // Only 2 events survive in the ring, but the per-kind totals cover
  // everything ever recorded.
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.count(core::TraceEventKind::kSubmit), 5u);
  EXPECT_EQ(trace.count(core::TraceEventKind::kComplete), 3u);
  trace.clear();
  EXPECT_EQ(trace.count(core::TraceEventKind::kSubmit), 0u);
  EXPECT_EQ(trace.overwritten(), 0u);
}

TEST(EventTrace, ToStringCoversEveryKind) {
  ASSERT_EQ(core::all_trace_event_kinds().size(),
            core::kTraceEventKindCount);
  std::set<std::string> names;
  for (auto kind : core::all_trace_event_kinds()) {
    const std::string name = core::to_string(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find('?'), std::string::npos) << "unnamed kind";
    names.insert(name);
  }
  EXPECT_EQ(names.size(), core::kTraceEventKindCount);  // all distinct
  EXPECT_EQ(std::string(core::to_string(core::TraceEventKind::kDeadlineMiss)),
            "deadline_miss");
  EXPECT_EQ(std::string(core::to_string(core::TraceEventKind::kDemote)),
            "demote");
}

TEST(EventTrace, CsvHeaderAndRow) {
  core::EventTrace trace(8);
  core::TraceEvent e = event(42, core::TraceEventKind::kRchannelGrant);
  e.aux = 17;
  trace.record(e);
  std::ostringstream os;
  trace.dump_csv(os);
  EXPECT_NE(os.str().find("slot,kind,device,vm,task,job,aux"),
            std::string::npos);
  EXPECT_NE(os.str().find("42,rchannel_grant,0,1,2,3,17"), std::string::npos);
}

TEST(EventTrace, HypervisorEmitsEvents) {
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 2;
  wcfg.target_utilization = 0.5;
  wcfg.preload_fraction = 0.4;
  const auto wl = workload::build_case_study(wcfg);
  core::HypervisorConfig hcfg;
  hcfg.num_vms = 2;
  core::Hypervisor hyp(wl, hcfg);
  core::EventTrace trace;
  hyp.set_tracer(&trace);

  workload::Job j;
  j.id = JobId{1};
  j.task = wl.runtime()[0].id;
  j.vm = wl.runtime()[0].vm;
  j.device = wl.runtime()[0].device;
  j.release = 0;
  j.absolute_deadline = 100000;
  j.wcet = 2;
  j.payload_bytes = 8;
  ASSERT_TRUE(hyp.submit(j, 0));
  std::vector<iodev::Completion> done;
  for (Slot s = 0; s < 20000 && trace.count(core::TraceEventKind::kComplete) ==
                                    0; ++s)
    hyp.tick_slot(s, done);

  EXPECT_GE(trace.count(core::TraceEventKind::kSubmit), 1u);
  EXPECT_GE(trace.count(core::TraceEventKind::kRchannelGrant), 1u);
  EXPECT_GE(trace.count(core::TraceEventKind::kComplete), 1u);
}

// -------------------------------------------------------------- Status

TEST(Status, OkAndErrorBasics) {
  EXPECT_TRUE(OkStatus().ok());
  const Status err = InvalidArgumentError("bad flag");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad flag");
  EXPECT_NE(err.to_string().find("bad flag"), std::string::npos);
}

TEST(Status, ExitCodeMapping) {
  EXPECT_EQ(exit_code(OkStatus()), 0);
  EXPECT_EQ(exit_code(InvalidArgumentError("x")), 2);
  EXPECT_EQ(exit_code(NotFoundError("x")), 2);
  EXPECT_EQ(exit_code(OutOfRangeError("x")), 2);
  EXPECT_EQ(exit_code(UnavailableError("x")), 2);
  EXPECT_EQ(exit_code(FailedPreconditionError("x")), 1);
  EXPECT_EQ(exit_code(DataLossError("x")), 1);
  EXPECT_EQ(exit_code(InternalError("x")), 1);
}

TEST(Status, StatusOrValueAndError) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);

  StatusOr<int> bad = NotFoundError("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
}

// -------------------------------------------------------------- CliSpec

TEST(CliSpec, TypedDefaultsAndParsedValues) {
  CliSpec spec("test tool");
  spec.flag_int("vms", 8, "VM count");
  spec.flag_double("util", 0.7, "target utilization");
  spec.flag("out", "", "output path");
  spec.flag_switch("verbose", "chatty");

  const char* argv[] = {"prog", "--vms=4", "--verbose"};
  const auto args = spec.parse(3, argv);
  ASSERT_TRUE(args.ok()) << args.status().to_string();
  EXPECT_EQ(args->get_int("vms"), 4);              // parsed
  EXPECT_DOUBLE_EQ(args->get_double("util"), 0.7); // registered default
  EXPECT_TRUE(args->get_bool("verbose"));
  EXPECT_EQ(args->get("out"), "");
}

TEST(CliSpec, RejectsUnknownFlagsAndBadTypes) {
  CliSpec spec("test tool");
  spec.flag_int("vms", 8, "VM count");

  const char* unknown[] = {"prog", "--bogus=1"};
  const auto u = spec.parse(2, unknown);
  ASSERT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(u.status().message().find("bogus"), std::string::npos);

  const char* bad_type[] = {"prog", "--vms=abc"};
  const auto b = spec.parse(2, bad_type);
  ASSERT_FALSE(b.ok());
  EXPECT_NE(b.status().message().find("vms"), std::string::npos);
}

TEST(CliSpec, HelpShortCircuitsValidation) {
  CliSpec spec("test tool");
  spec.flag("in", "", "input file");
  spec.positional("FILE", "extra input");
  // --help wins over the unknown flag that would fail validation.
  const char* argv[] = {"prog", "--help", "--bogus=1"};
  const auto args = spec.parse(3, argv);
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->help_requested());
  const std::string help = spec.help_text("prog");
  EXPECT_NE(help.find("--in"), std::string::npos);
  EXPECT_NE(help.find("FILE"), std::string::npos);
  EXPECT_NE(help.find("test tool"), std::string::npos);

  // A declared positional is accepted next to the flags.
  const char* full[] = {"prog", "--in=x.csv", "pos.csv"};
  const auto parsed = spec.parse(3, full);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->get("in"), "x.csv");
  ASSERT_EQ(parsed->positional().size(), 1u);
  EXPECT_EQ(parsed->positional()[0], "pos.csv");
}

TEST(CliSpec, ExtractRemovesOwnFlagsFromArgv) {
  CliSpec spec("bench tool");
  spec.flag_int("jobs", 1, "fan-out");
  spec.flag("faults", "", "fault plan");

  const char* a0 = "prog";
  const char* a1 = "--jobs=4";
  const char* a2 = "--benchmark_filter=foo";
  const char* a3 = "--faults=device-stall";
  char* argv[] = {const_cast<char*>(a0), const_cast<char*>(a1),
                  const_cast<char*>(a2), const_cast<char*>(a3), nullptr};
  int argc = 4;
  const auto args = spec.extract(&argc, argv);
  ASSERT_TRUE(args.ok()) << args.status().to_string();
  EXPECT_EQ(args->get_int("jobs"), 4);
  EXPECT_EQ(args->get("faults"), "device-stall");
  // Only the unregistered benchmark flag survives for the harness.
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--benchmark_filter=foo");
}

// ---------------------------------------------------------------- CSV I/O

TEST(TraceIo, TaskSetRoundTrip) {
  workload::CaseStudyConfig cfg;
  cfg.num_vms = 4;
  cfg.preload_fraction = 0.4;
  const auto wl = workload::build_case_study(cfg);

  std::stringstream buffer;
  workload::write_taskset_csv(buffer, wl.tasks);

  // Read it back with a plain comma split: no cell holds a comma.
  std::string line;
  ASSERT_TRUE(std::getline(buffer, line));
  EXPECT_EQ(line,
            "id,vm,device,name,class,kind,period,wcet,deadline,offset,payload");
  std::size_t row = 0;
  for (; std::getline(buffer, line); ++row) {
    ASSERT_LT(row, wl.tasks.size());
    std::vector<std::string> cells;
    std::istringstream is(line);
    for (std::string cell; std::getline(is, cell, ',');) cells.push_back(cell);
    ASSERT_EQ(cells.size(), 11u) << line;
    const auto& t = wl.tasks[row];
    const auto number = [](const std::string& cell) {
      return std::stoull(cell);
    };
    EXPECT_EQ(number(cells[0]), t.id.value);
    EXPECT_EQ(number(cells[1]), t.vm.value);
    EXPECT_EQ(number(cells[2]), t.device.value);
    EXPECT_EQ(cells[3], t.name);
    EXPECT_EQ(cells[4], workload::to_string(t.cls));
    EXPECT_EQ(cells[5], workload::to_string(t.kind));
    EXPECT_EQ(number(cells[6]), t.period);
    EXPECT_EQ(number(cells[7]), t.wcet);
    EXPECT_EQ(number(cells[8]), t.deadline);
    EXPECT_EQ(number(cells[9]), t.offset);
    EXPECT_EQ(number(cells[10]), t.payload_bytes);
  }
  EXPECT_EQ(row, wl.tasks.size());
}

}  // namespace
}  // namespace ioguard
