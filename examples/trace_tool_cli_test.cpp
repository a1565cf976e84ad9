// CLI contract tests for trace_tool, run against the real binary (path
// injected by CMake): strict flag handling must distinguish usage errors
// (exit 2) from runtime failures (exit 1) and success (exit 0).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

int run(const std::string& args) {
  const std::string cmd =
      std::string(PARDA_TRACE_TOOL_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

/// Like run() but with an environment assignment prefixed, for the
/// CLI > env > default precedence tests.
int run_env(const std::string& env, const std::string& args) {
  const std::string cmd = env + " " + std::string(PARDA_TRACE_TOOL_PATH) +
                          " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

/// Runs trace_tool and returns what it printed on stdout, expecting exit 0.
std::string output(const std::string& args) {
  const std::string cmd =
      std::string(PARDA_TRACE_TOOL_PATH) + " " + args + " 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(WEXITSTATUS(::pclose(pipe)), 0) << cmd;
  return out;
}

/// The "total" of one counter in a parda.metrics.v1 snapshot file, or 0
/// when the counter is absent.
std::uint64_t counter_total(const std::string& metrics_path,
                            const std::string& name) {
  std::ifstream in(metrics_path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string key = "\"" + name + "\":{\"total\":";
  const std::string json = text.str();
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

class TraceToolCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(run("gen --workload=zipf:m=500,a=0.9 --refs=20000 "
                  "--out=trace_cli_test.trc"),
              0);
  }
};

TEST_F(TraceToolCliTest, UnknownEngineIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=warp"), 2);
  // None of these is a trace_tool engine: avl and naive are library-only
  // test oracles and bench rows, treap and interval are not engines.
  for (const char* engine : {"avl", "treap", "interval", "naive"}) {
    EXPECT_EQ(run(std::string("analyze trace_cli_test.trc --engine=") +
                  engine),
              2)
        << engine;
  }
}

TEST_F(TraceToolCliTest, UnknownEngineRejectedForEveryCommand) {
  // The name is validated at parse time, before any work happens.
  EXPECT_EQ(run("gen --refs=10 --engine=warp --out=should_not_exist.trc"), 2);
}

TEST_F(TraceToolCliTest, SequentialEngineRuns) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --bound=256"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=olken"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=fenwick"), 0);
}

TEST_F(TraceToolCliTest, LruBoundAboveFootprintRuns) {
  // A bound far above the footprint means unbounded; the engine must not
  // size anything from it.
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru "
                "--bound=1000000000000"),
            0);
}

TEST_F(TraceToolCliTest, SequentialEngineWithStreamIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --stream"), 2);
}

TEST_F(TraceToolCliTest, ChunkTimesProcsOverflowIsUsageError) {
  // 2^62 words per chunk times 4 ranks wraps the phase size to 0, which
  // would read no block and report an empty trace.
  EXPECT_EQ(run("analyze trace_cli_test.trc --stream --procs=4 "
                "--chunk=4611686018427387904"),
            2);
}

TEST_F(TraceToolCliTest, BoundOnUnboundedOnlyEngineIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=fenwick --bound=64"), 2);
}

TEST_F(TraceToolCliTest, MissingTraceIsRuntimeError) {
  EXPECT_EQ(run("analyze no_such_file.trc --engine=lru"), 1);
}

TEST_F(TraceToolCliTest, DefaultEngineStillWorks) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2"), 0);
}

// --- Transport flag matrix (ISSUE 8) ---------------------------------------

TEST_F(TraceToolCliTest, InProcessTransportsAnalyze) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=threads"),
            0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm"), 0);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp"), 0);
}

TEST_F(TraceToolCliTest, BadTransportSpecIsUsageError) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=carrier-pigeon"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm:bogus=1"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm:ring=0"), 2);
}

TEST_F(TraceToolCliTest, EndpointFlagsNeedTheMatchingTransport) {
  // --rank without a cross-process wire.
  EXPECT_EQ(run("analyze trace_cli_test.trc --rank=0"), 2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=threads --rank=0"),
            2);
  // --peers is tcp-only, --segment is shm-only.
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=shm "
                "--peers=a:1,b:2"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --transport=tcp --segment=/x"),
            2);
  // Distributed shm needs a named segment; distributed tcp needs one peer
  // per rank; peers without --rank is meaningless.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--rank=0"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--rank=0 --peers=127.0.0.1:1"),
            2);
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--peers=127.0.0.1:1,127.0.0.1:2"),
            2);
  // Rank out of range.
  EXPECT_EQ(run("analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--segment=/parda-cli --rank=2"),
            2);
}

TEST_F(TraceToolCliTest, SequentialEngineRejectsExplicitWireTransport) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --engine=lru --transport=shm"),
            2);
  // ... but a process-wide $PARDA_TRANSPORT does not break sequential
  // engines (they ignore the wire instead of failing).
  EXPECT_EQ(run_env("PARDA_TRANSPORT=shm",
                    "analyze trace_cli_test.trc --engine=lru"),
            0);
}

TEST_F(TraceToolCliTest, DistributedModeRejectsPoolOnlyFeatures) {
  const std::string dist =
      "analyze trace_cli_test.trc --procs=2 --transport=tcp "
      "--peers=127.0.0.1:1,127.0.0.1:2 --rank=0 ";
  EXPECT_EQ(run(dist + "--watchdog-ms=100"), 2);
  EXPECT_EQ(run(dist + "--repeat=3"), 2);
}

TEST_F(TraceToolCliTest, TransportResolvesCliOverEnvOverDefault) {
  // A bogus environment value fails strict parsing...
  EXPECT_EQ(run_env("PARDA_TRANSPORT=warp-drive",
                    "analyze trace_cli_test.trc --procs=2"),
            2);
  // ...unless the command line overrides it (CLI wins)...
  EXPECT_EQ(run_env("PARDA_TRANSPORT=warp-drive",
                    "analyze trace_cli_test.trc --procs=2 "
                    "--transport=threads"),
            0);
  // ...and a valid env value selects the wire with no flag at all.
  EXPECT_EQ(run_env("PARDA_TRANSPORT=shm",
                    "analyze trace_cli_test.trc --procs=2"),
            0);
}

/// Launches one trace_tool rank process per entry in `ranks` (all but the
/// last in the background), returning rank 0's exit code. The peers all
/// analyze the same trace, so the run exercises the real cross-process
/// rendezvous + wire + implicit final barrier.
int run_distributed(const std::string& common, int np) {
  std::string cmd = "( ";
  for (int r = np - 1; r >= 1; --r) {
    cmd += std::string(PARDA_TRACE_TOOL_PATH) + " " + common +
           " --rank=" + std::to_string(r) + " >/dev/null 2>&1 & ";
  }
  cmd += std::string(PARDA_TRACE_TOOL_PATH) + " " + common +
         " --rank=0 >/dev/null 2>&1 ; rc=$? ; wait ; exit $rc )";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST_F(TraceToolCliTest, DistributedTcpAnalyzeAcrossProcesses) {
  EXPECT_EQ(run_distributed(
                "analyze trace_cli_test.trc --procs=2 --transport=tcp "
                "--peers=127.0.0.1:46917,127.0.0.1:46918",
                2),
            0);
}

TEST_F(TraceToolCliTest, DistributedShmAnalyzeAcrossProcesses) {
  EXPECT_EQ(run_distributed(
                "analyze trace_cli_test.trc --procs=2 --transport=shm "
                "--segment=/parda-cli-test",
                2),
            0);
}

// --- Ingest: the file picks its path (DESIGN.md "Ingest") -----------------

TEST_F(TraceToolCliTest, EveryFileShapePrintsTheSameMrc) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_same.trz "
                "--chunk-refs=4096"),
            0);
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_same.txt"), 0);
  const std::string mmap = output("analyze trace_cli_test.trc --procs=2");
  ASSERT_NE(mmap.find("20,000 references"), std::string::npos) << mmap;
  EXPECT_EQ(output("analyze trace_cli_same.trz --procs=2"), mmap);
  EXPECT_EQ(output("analyze trace_cli_same.txt --procs=2"), mmap);
  EXPECT_EQ(output("analyze trace_cli_test.trc --procs=2 --stream"), mmap);
}

TEST_F(TraceToolCliTest, MetricsShowTheSourceTheFilePicked) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_picked.trz "
                "--chunk-refs=4096"),
            0);
  ASSERT_EQ(run("analyze trace_cli_test.trc --procs=2 "
                "--metrics-out=trace_cli_trc_metrics.json"),
            0);
  EXPECT_GT(counter_total("trace_cli_trc_metrics.json",
                          "ingest.bytes_mapped"),
            0u);
  EXPECT_EQ(counter_total("trace_cli_trc_metrics.json",
                          "ingest.chunks_assigned"),
            0u);
  ASSERT_EQ(run("analyze trace_cli_picked.trz --procs=2 "
                "--metrics-out=trace_cli_trz_metrics.json"),
            0);
  EXPECT_GT(counter_total("trace_cli_trz_metrics.json",
                          "ingest.chunks_assigned"),
            0u);
}

TEST_F(TraceToolCliTest, RetiredIngestFlagsAreUnknown) {
  EXPECT_EQ(run("analyze trace_cli_test.trc --ingest=mmap"), 2);
  EXPECT_EQ(run("convert trace_cli_test.trc x.trz --trz-version=1"), 2);
}

TEST_F(TraceToolCliTest, NeitherMagicIsRuntimeError) {
  // A text trace under a binary name has no magic to pick a source by.
  std::ofstream("trace_cli_text.trc") << "1\n2\n1\n";
  EXPECT_EQ(run("analyze trace_cli_text.trc --procs=2"), 1);
}

TEST_F(TraceToolCliTest, RenamedTrzReadsByItsMagicInEveryCommand) {
  // A .trz archive under a .trc name: the sequential engines and convert
  // read it by its magic, as the parda path does.
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_renamed.trz "
                "--chunk-refs=4096"),
            0);
  ASSERT_EQ(std::rename("trace_cli_renamed.trz", "trace_cli_renamed.trc"), 0);
  const std::string expected = output("analyze trace_cli_test.trc");
  ASSERT_NE(expected.find("20,000 references"), std::string::npos)
      << expected;
  EXPECT_EQ(output("analyze trace_cli_renamed.trc --engine=fenwick"),
            expected);
  EXPECT_EQ(output("analyze trace_cli_renamed.trc"), expected);
  ASSERT_EQ(run("convert trace_cli_renamed.trc trace_cli_unpacked.trc"), 0);
  EXPECT_EQ(output("analyze trace_cli_unpacked.trc --engine=fenwick"),
            expected);
}

// --- convert: .trz chunking ---------------------------------------------------

TEST_F(TraceToolCliTest, ConvertWritesChunkedTrz) {
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_conv.trz"), 0);
  EXPECT_EQ(run("analyze trace_cli_conv.trz --procs=2"), 0);
  ASSERT_EQ(run("convert trace_cli_test.trc trace_cli_conv.trz "
                "--chunk-refs=1024"),
            0);
  EXPECT_EQ(run("analyze trace_cli_conv.trz --procs=2"), 0);
}

TEST_F(TraceToolCliTest, TrzFlagValidation) {
  // The chunk size on a non-.trz output; a degenerate chunk size.
  EXPECT_EQ(run("convert trace_cli_test.trc plain.trc --chunk-refs=64"), 2);
  EXPECT_EQ(run("convert trace_cli_test.trc x.trz --chunk-refs=0"), 2);
  // gen validates the same knobs.
  EXPECT_EQ(run("gen --refs=100 --out=x.trc --chunk-refs=64"), 2);
}

TEST_F(TraceToolCliTest, GenWritesChunkedTrzDirectly) {
  ASSERT_EQ(run("gen --workload=zipf:m=200,a=0.8 --refs=5000 "
                "--out=trace_cli_gen.trz --chunk-refs=512"),
            0);
  EXPECT_EQ(run("analyze trace_cli_gen.trz --procs=2"), 0);
}

}  // namespace
