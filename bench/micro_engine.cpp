// M1 — engine micro-benchmarks (google-benchmark): the per-operation costs
// of the scheduling machinery itself. These are host-time costs of the
// library code (not virtual-clock results): estimator lookups, split solves,
// wire framing and end-to-end DES message delivery.
//
// With --json <path>, the per-iteration timings are also written as a
// canonical rails-bench bundle. Host timings are never headline metrics —
// they vary with the runner — so they record the trajectory without gating
// CI.
#include <benchmark/benchmark.h>

#include <cstring>
#include <ctime>
#include <string>

#include "bench_support/bench_json.hpp"
#include "core/world.hpp"
#include "core/wire_format.hpp"
#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"
#include "strategy/rail_cost.hpp"
#include "strategy/split_solver.hpp"

using namespace rails;

namespace {

const std::vector<sampling::RailProfile>& profiles() {
  static const auto p =
      sampling::sample_rails({fabric::myri10g(), fabric::qsnet2()}, {});
  return p;
}

void BM_ProfileEstimate(benchmark::State& state) {
  const auto& profile = profiles()[0].rendezvous;
  std::size_t size = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.estimate(size));
    size = size * 2 + 1;
    if (size > 8_MiB) size = 1;
  }
}
BENCHMARK(BM_ProfileEstimate);

void BM_ProfileInverse(benchmark::State& state) {
  const auto& profile = profiles()[0].rdv_chunk;
  SimDuration budget = usec(10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.max_bytes_within(budget));
    budget = budget * 2 + 1;
    if (budget > usec(10000.0)) budget = usec(10.0);
  }
}
BENCHMARK(BM_ProfileInverse);

void BM_DichotomySplit(benchmark::State& state) {
  const strategy::ProfileCost myri(&profiles()[0].rdv_chunk);
  const strategy::ProfileCost qs(&profiles()[1].rdv_chunk);
  const strategy::SolverRail a{0, &myri, 0};
  const strategy::SolverRail b{1, &qs, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strategy::dichotomy_split(a, b, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_DichotomySplit)->Arg(256 << 10)->Arg(4 << 20);

void BM_EqualFinishSplit(benchmark::State& state) {
  const strategy::ProfileCost myri(&profiles()[0].rdv_chunk);
  const strategy::ProfileCost qs(&profiles()[1].rdv_chunk);
  const std::vector<strategy::SolverRail> rails = {{0, &myri, 0}, {1, &qs, 0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strategy::solve_equal_finish(rails, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_EqualFinishSplit)->Arg(256 << 10)->Arg(4 << 20);

void BM_WireFraming(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    std::vector<std::uint8_t> payload;
    core::append_subpacket(payload, {1, 2, body.size(), 0, body.data(),
                                     static_cast<std::uint32_t>(body.size())});
    auto parsed = core::parse_subpackets(payload);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireFraming)->Arg(256)->Arg(16 << 10);

void BM_DesPingPong(benchmark::State& state) {
  // Host cost of one full simulated ping-pong (engine + DES overhead).
  core::World world(core::paper_testbed("hetero-split"));
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.measure_pingpong(size, 1));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_DesPingPong)->Arg(4 << 10)->Arg(1 << 20);

void BM_EagerSubmission(benchmark::State& state) {
  // Host cost of isend+delivery for a small eager message.
  core::World world(core::paper_testbed("aggregate-fastest"));
  std::vector<std::uint8_t> tx(512, 0x5A);
  std::vector<std::uint8_t> rx(512);
  Tag tag = 1;
  for (auto _ : state) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), rx.size());
    world.engine(0).isend(1, tag, tx.data(), tx.size());
    world.wait(recv);
    ++tag;
  }
}
BENCHMARK(BM_EagerSubmission);

void BM_RendezvousSend(benchmark::State& state) {
  // Host cost of one 2-node hetero-split rendezvous (RTS, CTS, DMA chunks,
  // FIN), reliability off (chunks borrow the send buffer) or on (each chunk
  // carries its own copy for the retransmit ring and the CRC).
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = state.range(1) != 0;
  core::World world(cfg);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> tx(size, 0x3C);
  std::vector<std::uint8_t> rx(size);
  Tag tag = 1;
  for (auto _ : state) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), rx.size());
    auto send = world.engine(0).isend(1, tag, tx.data(), tx.size());
    world.wait(recv);
    world.wait(send);
    if (!send->rendezvous) state.SkipWithError("size is below the rendezvous threshold");
    ++tag;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RendezvousSend)
    ->ArgsProduct({{64 << 10, 1 << 20, 16 << 20}, {0, 1}})
    ->ArgNames({"bytes", "rel"});

// Console reporter that also captures per-run timings for the --json bundle.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      captured_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                           run.GetAdjustedCPUTime()});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  struct Captured {
    std::string name;
    double real_ns;
    double cpu_ns;
  };
  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json <path> before google-benchmark sees the arguments.
  const char* json_path = nullptr;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path != nullptr) {
    bench::BenchResult result;
    result.name = "micro_engine";
    for (const CaptureReporter::Captured& c : reporter.captured()) {
      result.metrics.push_back({"real_ns_per_iter/" + c.name, c.real_ns, "ns",
                                /*higher_is_better=*/false,
                                /*headline=*/false});
      result.metrics.push_back({"cpu_ns_per_iter/" + c.name, c.cpu_ns, "ns",
                                /*higher_is_better=*/false,
                                /*headline=*/false});
    }
    bench::BenchBundle bundle;
    bundle.generator = "micro_engine";
    bundle.commit = bench::commit_from_env();
    bundle.generated_unix = static_cast<std::uint64_t>(std::time(nullptr));
    bundle.benches.push_back(std::move(result));
    if (!bench::write_bundle_file(json_path, bundle)) return 1;
  }
  return 0;
}
