// Span recording from the benchmark's side of each layer boundary: the
// Runner wraps the core submit calls and every event-queue step, and a
// forwarding Strategy wraps the optimizer's decision points.
#include <utility>

#include "perf/profiler.hpp"
#include "railbench.hpp"

namespace railbench {

const char* span_name(SpanName name) {
  switch (name) {
    case kSubmit: return "core.submit";
    case kDispatch: return "fabric.dispatch";
    case kPlanEager: return "strategy.plan_eager";
    case kPlanRdv: return "strategy.plan_rendezvous";
    case kControlRail: return "strategy.control_rail";
    case kGenerate: return "bench.generate";
    case kSpanNameCount: break;
  }
  return "?";
}

LayerTimes summarize(const SpanRecorder& rec) {
  LayerTimes out;
  const auto& spans = rec.spans();
  const double ns_per_tick = rec.ns_per_tick();
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.end - s.start) * ns_per_tick;
    ++out.calls[s.name];
    out.self_ns[s.name] += dur;
    if (s.parent == SpanRecorder::kNoParent) {
      out.root_ns += dur;
    } else {
      out.self_ns[spans[s.parent].name] -= dur;
    }
  }
  return out;
}

namespace {

class TracedStrategy final : public core::Strategy {
 public:
  TracedStrategy(std::unique_ptr<core::Strategy> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }

  core::EagerSchedule plan_eager(const core::StrategyContext& ctx,
                                 std::span<const core::SendRequest* const> pending) override {
    ScopedSpan span(rec_, kPlanEager, pending.empty() ? 0 : pending.front()->tag);
    return inner_->plan_eager(ctx, pending);
  }

  strategy::SplitResult plan_rendezvous(const core::StrategyContext& ctx,
                                        std::size_t len) override {
    ScopedSpan span(rec_, kPlanRdv, 0);
    return inner_->plan_rendezvous(ctx, len);
  }

  RailId control_rail(const core::StrategyContext& ctx) const override {
    ScopedSpan span(rec_, kControlRail, 0);
    return inner_->control_rail(ctx);
  }

  bool eager_plan_cacheable(const core::StrategyContext& ctx,
                            std::span<const core::SendRequest* const> pending) const override {
    return inner_->eager_plan_cacheable(ctx, pending);
  }

 private:
  std::unique_ptr<core::Strategy> inner_;
  SpanRecorder* rec_;
};

}  // namespace

std::unique_ptr<core::Strategy> make_traced_strategy(std::unique_ptr<core::Strategy> inner,
                                                     SpanRecorder* rec) {
  return std::make_unique<TracedStrategy>(std::move(inner), rec);
}

core::SendHandle Runner::isend(NodeId src, NodeId dst, Tag tag, const std::uint8_t* data,
                               std::size_t len, std::uint64_t msg) {
  ScopedSpan span(rec_, kSubmit, msg);
  return world_.engine(src).isend(dst, tag, data, len);
}

core::RecvHandle Runner::irecv(NodeId at, NodeId src, Tag tag, std::uint8_t* data,
                               std::size_t len, std::uint64_t msg) {
  ScopedSpan span(rec_, kSubmit, msg);
  return world_.engine(at).irecv(src, tag, data, len);
}

void Runner::steady_begin() {
  alloc0_ = perf::t_alloc_count;
  steady_open_ = true;
}

void Runner::steady_end() {
  if (!steady_open_) return;
  steady_allocs_ += perf::t_alloc_count - alloc0_;
  steady_open_ = false;
}

}  // namespace railbench
