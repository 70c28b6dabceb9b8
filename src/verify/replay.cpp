#include "verify/replay.hpp"

#include <numeric>

#include "hybrid/engine.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::verify {

namespace {

/// EventRouter that follows a counterexample script instead of a channel
/// model: the k-th wireless emission takes the k-th recorded decision.
class ScriptRouter final : public hybrid::EventRouter {
 public:
  ScriptRouter(const hybrid::Engine& engine, const VerifyInput& input, const Counterexample& cx)
      : cx_(cx), routed_(engine.labels().size(), false) {
    for (const auto& r : input.routes) {
      const hybrid::LabelId id = engine.label_id(r.root);
      if (id != hybrid::kNoLabel) routed_[id] = true;
    }
  }

  void route(hybrid::Engine& engine, std::size_t, const hybrid::SyncLabel& label,
             hybrid::LabelId label_id) override {
    if (!routed_[label_id]) return;  // internal event, no receivers
    const std::size_t k = next_send_++;
    if (k >= cx_.sends.size() || cx_.sends[k].root != label.root) {
      ++unmatched_;
      return;  // diverged from the script; drop
    }
    const CounterexampleSend& send = cx_.sends[k];
    if (send.lost) return;
    const std::size_t to = send.dst_automaton;
    engine.scheduler().schedule_at(send.deliver_time, [&engine, to, label_id] {
      engine.deliver(to, label_id);
    });
  }

  std::size_t unmatched() const { return unmatched_; }

 private:
  const Counterexample& cx_;
  std::vector<bool> routed_;  // [label id]
  std::size_t next_send_ = 0;
  std::size_t unmatched_ = 0;
};

}  // namespace

std::string ReplayResult::summary() const {
  std::string out = util::cat("replay: ", violations.size(), " violation(s), ",
                              reproduced ? "reproduced" : "NOT reproduced",
                              unmatched_sends > 0
                                  ? util::cat(" (", unmatched_sends, " unmatched sends)")
                                  : "");
  for (const auto& v : violations)
    out += util::cat("\n  [t=", util::fmt_double(v.t, 4), "] ",
                     core::violation_kind_str(v.kind), ": ", v.description);
  return out;
}

ReplayResult replay_counterexample(const VerifyInput& input, const Counterexample& cx) {
  // The verdict comes from the monitor, so the replay records no trace.
  hybrid::Engine engine(input.automata, hybrid::EngineOptions{.record_trace = false});
  ScriptRouter router(engine, input, cx);
  engine.set_router(&router);

  core::PteMonitor monitor(input.monitor);
  std::vector<std::size_t> entity_of(input.automata.size());
  std::iota(entity_of.begin(), entity_of.end(), 0);  // automaton e runs entity e
  monitor.attach(engine, std::move(entity_of));
  engine.init();

  for (const auto& inj : cx.injections) {
    const std::size_t automaton = inj.automaton;
    const std::string root = inj.root;
    engine.scheduler().schedule_at(inj.t, [&engine, automaton, root] {
      engine.inject(automaton, root);
    });
  }
  for (const auto& tg : cx.toggles) {
    const std::size_t automaton = tg.automaton;
    const hybrid::VarId var = tg.var;
    const double value = tg.value;
    engine.scheduler().schedule_at(tg.t, [&engine, automaton, var, value] {
      engine.set_var(automaton, var, value);
    });
  }
  engine.run_until(cx.horizon);
  monitor.finalize(cx.horizon);

  ReplayResult result;
  result.violations = monitor.violations();
  result.unmatched_sends = router.unmatched();
  for (const auto& v : result.violations) {
    if (v.kind == cx.kind) result.reproduced = true;
  }
  return result;
}

}  // namespace ptecps::verify
