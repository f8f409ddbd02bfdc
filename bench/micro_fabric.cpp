// M2 — DES substrate micro-benchmarks (google-benchmark, host time): the
// raw costs of the simulation machinery itself. These bound how much
// virtual experimentation a second of host CPU buys.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/crc32c.hpp"
#include "common/stream_copy.hpp"
#include "fabric/fabric.hpp"
#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"

using namespace rails;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  fabric::EventQueue eq;
  std::size_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      eq.after(i + 1, [&sink] { ++sink; });
    }
    eq.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_NicPostDeliver(benchmark::State& state) {
  fabric::Fabric fab({2, {fabric::myri10g()}});
  std::size_t delivered = 0;
  fab.set_rx_handler(1, [&](fabric::Segment&&) { ++delivered; });
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    fabric::Segment seg;
    seg.kind = fabric::SegKind::kEager;
    seg.src = 0;
    seg.dst = 1;
    seg.rail = 0;
    seg.payload.assign(size, 0x11);
    fab.nic(0, 0).post(std::move(seg), fab.now());
    fab.events().run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NicPostDeliver)->Arg(64)->Arg(16 << 10);

void BM_ModelEagerTiming(benchmark::State& state) {
  const fabric::NetworkModel model{fabric::qsnet2()};
  std::size_t size = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.eager(size));
    size = (size * 7 + 3) & 0xFFFF;
  }
}
BENCHMARK(BM_ModelEagerTiming);

void BM_SimCoresOccupy(benchmark::State& state) {
  fabric::SimCores cores(MachineTopology::t2k_4x4());
  SimTime t = 0;
  for (auto _ : state) {
    for (CoreId c = 0; c < cores.count(); ++c) cores.occupy(c, t, 100);
    benchmark::DoNotOptimize(cores.idle_count(t));
    t += 100;
  }
}
BENCHMARK(BM_SimCoresOccupy);

void BM_FullRailSampling(benchmark::State& state) {
  // Host cost of the whole startup sampling pass for one rail.
  for (auto _ : state) {
    const auto profile = sampling::sample_rail(fabric::myri10g(), {});
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_FullRailSampling)->Unit(benchmark::kMillisecond);

// Wire checksum throughput (docs/PERF.md, "Wire checksum"): the dispatched
// path the engine uses, each carry-less-multiply fold the CPU can run, and
// the portable slice-by-8 they all must agree with.
template <std::uint32_t (*Extend)(std::uint32_t, const void*, std::size_t)>
void crc32c_throughput(benchmark::State& state, bool supported = true) {
  if (!supported) {
    state.SkipWithError("this CPU cannot run this path");
    return;
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131u);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = Extend(crc, buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void crc32c_sizes(benchmark::internal::Benchmark* b) {
  for (const int64_t n : {64, 512, 2 << 10, 4 << 10, 64 << 10, 512 << 10, 1 << 20}) {
    b->Arg(n);
  }
}

void BM_Crc32c(benchmark::State& state) { crc32c_throughput<crc32c_extend>(state); }
BENCHMARK(BM_Crc32c)->Apply(crc32c_sizes);

void BM_Crc32cVpclmul(benchmark::State& state) {
  crc32c_throughput<detail::crc32c_extend_vpclmul>(state,
                                                   detail::crc32c_vpclmul_supported());
}
BENCHMARK(BM_Crc32cVpclmul)->Apply(crc32c_sizes);

void BM_Crc32cPclmul(benchmark::State& state) {
  crc32c_throughput<detail::crc32c_extend_pclmul>(state, detail::crc32c_pclmul_supported());
}
BENCHMARK(BM_Crc32cPclmul)->Apply(crc32c_sizes);

void BM_Crc32cPortable(benchmark::State& state) {
  crc32c_throughput<detail::crc32c_extend_portable>(state);
}
BENCHMARK(BM_Crc32cPortable)->Apply(crc32c_sizes);

// Receive-side placement (docs/PERF.md, "Payload placement"): one chunk
// per iteration into a destination that is cold (each copy lands further
// along a 256 MiB ring, far past the last-level cache) or warm (the same
// destination every time), with memcpy, with stream_copy (AVX-512F where
// the CPU has it) and with its SSE2 body.
constexpr std::size_t kRing = std::size_t{256} << 20;

/// One ring for both copies, touched once: no page faults inside the loop.
std::vector<std::uint8_t>& cold_ring() {
  static std::vector<std::uint8_t> ring(kRing, 1);
  return ring;
}

/// Copies one chunk of state.range(0) bytes per iteration with `copy`.
template <typename CopyFn>
void place_loop(benchmark::State& state, bool cold, CopyFn copy) {
  std::vector<std::uint8_t>& ring = cold_ring();
  const auto chunk = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(chunk);
  for (std::size_t i = 0; i < chunk; ++i) src[i] = static_cast<std::uint8_t>(i * 131u);
  std::size_t at = 0;
  for (auto _ : state) {
    copy(ring.data() + at, src.data(), chunk);
    benchmark::ClobberMemory();
    if (cold) at = at + 2 * chunk <= kRing ? at + chunk : 0;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

template <void (*Copy)(void*, const void*, std::size_t)>
void place_throughput(benchmark::State& state) {
  place_loop(state, state.range(1) != 0, Copy);
}

void place_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"bytes", "cold"});
  for (const int64_t cold : {1, 0}) {
    for (const int64_t n : {64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20, 16 << 20}) {
      b->Args({n, cold});
    }
  }
}

void plain_memcpy(void* dst, const void* src, std::size_t n) { std::memcpy(dst, src, n); }

BENCHMARK(place_throughput<plain_memcpy>)->Name("BM_PlaceMemcpy")->Apply(place_args);
BENCHMARK(place_throughput<stream_copy>)->Name("BM_PlaceStream")->Apply(place_args);
#if defined(__x86_64__)
BENCHMARK(place_throughput<detail::stream_copy_sse2>)->Name("BM_PlaceSse2")->Apply(place_args);
#endif

// Multicore placement (docs/PERF.md, "Multicore placement"): the split copy
// cut into 1-4 slices, into the cold ring. Slices beyond the host's helper
// threads (the "helpers" counter) fall to the caller. Wall-clock time, as
// the caller waits for the helpers. The evidence for kSplitCopyMin and
// kMaxPlaceParts.
void BM_PlaceParallel(benchmark::State& state) {
  const auto parts = static_cast<unsigned>(state.range(1));
  place_loop(state, /*cold=*/true, [parts](void* dst, const void* src, std::size_t n) {
    detail::stream_copy_parts(dst, src, n, parts);
  });
  state.counters["helpers"] = detail::stream_copy_helpers();
}
BENCHMARK(BM_PlaceParallel)
    ->ArgNames({"bytes", "parts"})
    ->ArgsProduct({{256 << 10, 1 << 20, 4 << 20, 16 << 20}, {1, 2, 3, 4}})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("crc32c_path", detail::crc32c_path());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
