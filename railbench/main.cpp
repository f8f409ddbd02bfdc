// railbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about <s> seconds of passes and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The traced run measures untraced passes first (half the time), then
// traced ones, and requires every exact value to agree between the two.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "railbench.hpp"

namespace railbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"virt_latency_p50_us", "us"},   {"virt_latency_p99_us", "us"},
    {"virt_msg_rate_per_ms", "msgs/ms"}, {"virt_goodput_mbps", "MB/s"},
    {"virt_completion_us", "us"},    {"virt_sustained_mbps", "MB/s"},
    {"host_msgs_per_s", "msgs/s"},   {"host_payload_mb_per_s", "MB/s"},
    {"setup_s", "s"},                {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"core.submit.calls", "count"},
    {"core.submit.self_ns_per_call", "ns"},
    {"core.allocs_per_msg", "allocs/msg"},
    {"core.msgs_per_eager_segment", "msgs/seg"},
    {"core.offloaded_chunks_per_msg", "chunks/msg"},
    {"core.virt_wait_p99_us", "us"},
    {"core.rel.retransmits_per_segment", "ratio"},
    {"core.rel.acks_per_segment", "ratio"},
    {"core.rel.inferred_per_real_drop", "ratio"},
    {"core.quarantines", "count"},
    {"strategy.plan_eager.calls_per_msg", "calls/msg"},
    {"strategy.plan_eager.self_ns_per_call", "ns"},
    {"strategy.plan_rendezvous.calls", "count"},
    {"strategy.plan_rendezvous.self_ns_per_call", "ns"},
    {"strategy.cache_hit_ratio", "ratio"},
    {"sampling.pred_abs_err_mean_pct", "%"},
    {"qos.grants_per_msg", "grants/msg"},
    {"qos.stream_chunks", "count"},
    {"qos.depth_max", "count"},
    {"fabric.events_per_msg", "events/msg"},
    {"fabric.dispatch.self_ns_per_event", "ns"},
    {"fabric.pending_max", "count"},
    {"fabric.shard_switches_per_event", "ratio"},
    {"fabric.handler_spills", "count"},
    {"fabric.rail_byte_share.r0", "ratio"},
    {"fabric.segments_per_msg", "segs/msg"},
    {"topo.forwarded_per_msg", "segs/msg"},
    {"topo.mean_hops", "hops"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"failed_frac", "ratio"},
    {"virt_latency_samples", "count"},
};

/// Spans must account for at least this share of traced drive time.
constexpr double kMinCoveragePct = 95.0;
constexpr int kSetupsPerPass = 4;

/// Records every key whose value differs between two exact maps.
void compare(const std::map<std::string, double>& want, const std::map<std::string, double>& got,
             const char* what, std::vector<std::string>& errors) {
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    if (it == got.end() || std::memcmp(&it->second, &v, sizeof v) != 0) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %s %.17g != %.17g", what, k.c_str(), v,
                    it == got.end() ? NAN : it->second);
      errors.emplace_back(buf);
    }
  }
}

void print_layers(const LayerTimes& l, double drive_ns, double messages) {
  std::printf("  %-26s %10s %12s %12s %10s %9s\n", "layer (traced pass)", "calls", "self ms",
              "self ns/call", "ns/msg", "% wall");
  for (int i = 0; i < kSpanNameCount; ++i) {
    if (l.calls[i] == 0) continue;
    std::printf("  %-26s %10llu %12.3f %12.1f %10.1f %8.2f%%\n",
                span_name(static_cast<SpanName>(i)),
                static_cast<unsigned long long>(l.calls[i]), l.self_ns[i] * 1e-6,
                l.self_ns[i] / static_cast<double>(l.calls[i]), l.self_ns[i] / messages,
                100.0 * l.self_ns[i] / drive_ns);
  }
  std::printf("  %-26s %10s %12.3f %12s %10.1f %8.2f%%\n", "(outside any span)", "",
              (drive_ns - l.root_ns) * 1e-6, "", (drive_ns - l.root_ns) / messages,
              100.0 * (drive_ns - l.root_ns) / drive_ns);
}

void write_spans(const SpanRecorder& rec, const std::string& workload, std::uint64_t seed) {
  const std::filesystem::path dir = ".railbench";
  std::filesystem::create_directories(dir);
  // One file per workload, overwritten by every traced run, so repeated
  // runs cannot fill the disk.
  const auto path = dir / ("spans-" + workload + ".csv");
  std::ofstream os(path);
  os << "# seed " << seed << "\nid,name,start_ns,end_ns,parent,msg\n";
  const auto& spans = rec.spans();
  const double ns_per_tick = rec.ns_per_tick();
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  const auto ns = [&](std::int64_t t) { return std::llround(static_cast<double>(t - t0) * ns_per_tick); };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << i << ',' << span_name(s.name) << ',' << ns(s.start) << ',' << ns(s.end) << ','
       << (s.parent == SpanRecorder::kNoParent ? -1 : static_cast<long long>(s.parent)) << ','
       << s.msg << '\n';
  }
  std::printf("  spans written to %s (%zu spans)\n", path.string().c_str(), spans.size());
}

int usage() {
  std::fprintf(stderr,
               "usage: railbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  const auto& all = workloads();
  const auto wl = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (argc % 2 != 1 || wl == all.end() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::printf("railbench workload=%s seed=%llu seconds=%g trace=%d\n", wl->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::fflush(stdout);

  // Set-up takes a few milliseconds, so besides the World each pass builds,
  // it is timed on its own a few times before every pass: the median then
  // samples the host across the whole run, not one moment of it.
  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      double s = 0.0;
      build_world(wl->config(seed), nullptr, &s);
      setups.push_back(s);
    }
  };

  std::vector<std::string> errors;
  const auto options = [&](std::size_t pass, SpanRecorder* rec) {
    return PassOptions{seed, wl->varies_per_pass ? pass : 0, rec};
  };
  // Warm-up pass: fills the process-wide request pools and the receive
  // arena's pages, so it is not timed (its allocation count includes that
  // growth). Its memory growth is peak_rss_mb: on a cold process every byte
  // the program needs shows, while later passes reuse what earlier ones
  // freed. The first measured pass is the reference for the exact values:
  // the warm-up and every later pass of its variant, traced or not, must
  // repeat it.
  const PassResult warm = wl->run(options(0, nullptr));

  const double untraced_budget = trace == 1 ? seconds / 2 : seconds;
  const std::size_t min_passes = trace == 1 ? 2 : 3;
  std::vector<PassResult> untraced;
  for (std::int64_t t0 = host_ns();
       untraced.size() < min_passes || static_cast<double>(host_ns() - t0) * 1e-9 < untraced_budget;) {
    time_setups();
    untraced.push_back(wl->run(options(untraced.size(), nullptr)));
    if (!wl->varies_per_pass) {
      compare(untraced.front().exact, untraced.back().exact, "untraced pass differs", errors);
    }
  }
  const PassResult& ref = untraced.front();
  compare(ref.exact, warm.exact, "warm-up pass differs", errors);
  const std::size_t exact_errors = errors.size();
  for (const auto& f : warm.check_failures) errors.push_back("warm-up self-check failed: " + f);
  // Host rates are all the passes' deliveries over all their host time, so
  // a pass that costs more (on mixed_reliable, one with more quarantines)
  // weighs in full. Every pass must pass the self-checks, and a delivery
  // whose bytes differ from what was sent is a wrong output. A send that
  // fails or never completes is counted in `failed`.
  std::uint64_t attempted = 0, failed = 0, delivered_msgs = 0, delivered_bytes = 0;
  double drive_total = 0.0;
  std::vector<double> drive;
  for (std::size_t k = 0; k < untraced.size(); ++k) {
    const PassResult& p = untraced[k];
    for (const auto& f : p.check_failures) {
      errors.push_back("pass " + std::to_string(k) + " self-check failed: " + f);
    }
    if (p.exact.at("count.corrupt") != 0) {
      errors.push_back("pass " + std::to_string(k) + ": corrupt deliveries");
    }
    attempted += p.attempted;
    failed += p.failed;
    delivered_msgs += p.delivered_msgs;
    delivered_bytes += p.delivered_bytes;
    drive_total += p.drive_seconds;
    drive.push_back(p.drive_seconds);
    setups.insert(setups.end(), p.setup_seconds.begin(), p.setup_seconds.end());
  }

  std::printf("  passes: 1 warm-up + %zu measured untraced; exact values %s\n", untraced.size(),
              exact_errors != 0       ? "DIFFER"
              : wl->varies_per_pass ? "repeat in the warm-up (one fault stream per pass)"
                                    : "repeat in every pass");
  std::printf("  messages/pass=%llu attempted=%llu failed=%llu (failed=%g rejected=%g "
              "non-terminal=%g corrupt=%g)\n",
              static_cast<unsigned long long>(ref.messages),
              static_cast<unsigned long long>(ref.attempted),
              static_cast<unsigned long long>(ref.failed), ref.exact.at("count.failed"),
              ref.exact.at("count.rejected"), ref.exact.at("count.nonterminal"),
              ref.exact.at("count.corrupt"));
  std::printf("  host msgs/s per pass:");
  for (const auto& p : untraced) {
    std::printf(" %.0f", static_cast<double>(p.delivered_msgs) / p.drive_seconds);
  }
  std::printf("\n  all passes: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  std::printf("  latency percentiles over %g samples\n", ref.exact.at("virt_latency_samples"));
  for (const auto& [k, v] : ref.exact) {
    if (k.rfind("ladder.", 0) == 0) std::printf("  %-32s %.6g\n", k.c_str(), v);
  }

  std::map<std::string, double> metrics;
  if (trace == 0) {
    for (const Metric& m : kEndToEnd) {
      if (ref.exact.count(m.name) != 0) metrics[m.name] = ref.exact.at(m.name);
    }
    metrics["host_msgs_per_s"] = static_cast<double>(delivered_msgs) / drive_total;
    metrics["host_payload_mb_per_s"] = static_cast<double>(delivered_bytes) / drive_total * 1e-6;
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = warm.peak_mb;
  } else {
    SpanRecorder rec;
    rec.reserve(static_cast<std::size_t>(ref.exact.at("count.events") +
                                         4.0 * static_cast<double>(ref.messages)));
    std::vector<PassResult> traced;
    for (std::int64_t t0 = host_ns();
         traced.size() < 2 || static_cast<double>(host_ns() - t0) * 1e-9 < seconds / 2;) {
      const std::size_t k = traced.size();
      rec.clear();
      traced.push_back(wl->run(options(k, &rec)));
      traced.back().layers = summarize(rec);
      for (const auto& f : traced.back().check_failures) {
        errors.push_back("traced pass " + std::to_string(k) + " self-check failed: " + f);
      }
      if (traced.back().exact.at("count.corrupt") != 0) {
        errors.push_back("traced pass " + std::to_string(k) + ": corrupt deliveries");
      }
      const PassResult* twin = !wl->varies_per_pass ? &ref
                               : k < untraced.size() ? &untraced[k]
                                                     : nullptr;
      if (twin != nullptr) {
        compare(twin->exact, traced.back().exact, "traced pass differs from untraced", errors);
      }
      if (!wl->varies_per_pass) {
        compare(traced.front().traced_exact, traced.back().traced_exact, "traced pass differs",
                errors);
      }
    }
    // Counts come from the reference variant's passes.
    const PassResult& first = traced.front();
    const double msgs = static_cast<double>(ref.messages);
    std::vector<double> submit_ns, eager_ns, rdv_ns, dispatch_ns, coverage, tdrive, overhead;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const PassResult& p = traced[k];
      const LayerTimes& l = p.layers;
      const auto per_call = [&](SpanName s) {
        return l.calls[s] == 0 ? 0.0 : l.self_ns[s] / static_cast<double>(l.calls[s]);
      };
      submit_ns.push_back(per_call(kSubmit));
      eager_ns.push_back(per_call(kPlanEager));
      rdv_ns.push_back(per_call(kPlanRdv));
      dispatch_ns.push_back(per_call(kDispatch));
      coverage.push_back(100.0 * l.root_ns / (p.drive_seconds * 1e9));
      tdrive.push_back(p.drive_seconds);
      // Against the untraced pass of the same index, hence the same input.
      if (k < untraced.size()) {
        overhead.push_back((p.drive_seconds / untraced[k].drive_seconds - 1.0) * 100.0);
      }
    }
    for (const auto& [k, v] : ref.exact) metrics[k] = v;
    std::vector<double> allocs;
    for (const auto& p : untraced) allocs.push_back(p.allocs_per_msg);
    metrics["core.allocs_per_msg"] = median(allocs);
    for (const auto& [k, v] : first.traced_exact) metrics[k] = v;
    const LayerTimes& l = first.layers;
    metrics["core.submit.calls"] = static_cast<double>(l.calls[kSubmit]);
    metrics["core.submit.self_ns_per_call"] = median(submit_ns);
    metrics["strategy.plan_eager.calls_per_msg"] = static_cast<double>(l.calls[kPlanEager]) / msgs;
    metrics["strategy.plan_eager.self_ns_per_call"] = median(eager_ns);
    metrics["strategy.plan_rendezvous.calls"] = static_cast<double>(l.calls[kPlanRdv]);
    metrics["strategy.plan_rendezvous.self_ns_per_call"] = median(rdv_ns);
    metrics["fabric.dispatch.self_ns_per_event"] = median(dispatch_ns);
    metrics["trace.coverage_pct"] = median(coverage);
    metrics["trace.overhead_pct"] = median(overhead);
    if (!wl->varies_per_pass) {
      for (const auto& p : traced) {
        for (int s = 0; s < kSpanNameCount; ++s) {
          if (p.layers.calls[s] != l.calls[s]) {
            errors.push_back(std::string("span count differs between traced passes: ") +
                             span_name(static_cast<SpanName>(s)));
          }
        }
      }
    }
    std::printf("  %zu traced passes; traced drive %.3f s vs untraced %.3f s (median)\n",
                traced.size(), median(tdrive), median(drive));
    print_layers(l, first.drive_seconds * 1e9, msgs);
    if (metrics["trace.coverage_pct"] < kMinCoveragePct) {
      errors.push_back("span coverage below 95% of traced drive time");
    }
    write_spans(rec, wl->name, seed);
  }

  const Metric* begin = trace == 0 ? std::begin(kEndToEnd) : std::begin(kPerLayer);
  const Metric* end = trace == 0 ? std::end(kEndToEnd) : std::end(kPerLayer);
  for (const Metric* m = begin; m != end; ++m) {
    std::printf("  %-40s %.6g %s\n", m->name, metrics[m->name], m->unit);
  }
  for (const auto& e : errors) std::printf("  ERROR %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (const Metric* m = begin; m != end; ++m) {
    double v = metrics[m->name];
    if (!std::isfinite(v)) v = 0.0;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m == begin ? "" : ", ", m->name, v, m->unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace railbench

int main(int argc, char** argv) { return railbench::run(argc, argv); }
