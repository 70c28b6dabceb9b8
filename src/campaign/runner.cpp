#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "campaign/context.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/text.hpp"
#include "verify/replay.hpp"

namespace ptecps::campaign {

namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

struct RunSlot {
  RunResult result;
  bool ok = false;
  std::string error;
};

}  // namespace

CampaignRunner::CampaignRunner(CampaignOptions options) : options_(options) {}

CampaignReport CampaignRunner::run(const ScenarioSpec& spec) {
  return run(std::vector<ScenarioSpec>{spec});
}

CampaignReport CampaignRunner::run(const std::vector<ScenarioSpec>& specs) {
  PTE_REQUIRE(!specs.empty(), "campaign needs at least one scenario");
  for (const auto& s : specs) {
    PTE_REQUIRE(s.mode == RunMode::kVerify || !s.seeds.empty(),
                util::cat("scenario '", s.name, "' has no seeds"));
  }

  // Flatten to (spec, seed) work items; slot index = deterministic merge
  // position, independent of which worker finishes when.  kVerify specs
  // contribute no Monte-Carlo items (their seeds are unused).
  struct WorkItem {
    std::size_t spec;
    std::size_t seed_index;
  };
  std::vector<WorkItem> items;
  for (std::size_t si = 0; si < specs.size(); ++si) {
    if (specs[si].mode == RunMode::kVerify) continue;
    for (std::size_t k = 0; k < specs[si].seeds.size(); ++k) items.push_back({si, k});
  }

  // One validated prototype per pattern-system spec, shared read-only by
  // every worker (custom_run specs manage their own construction).
  std::vector<std::shared_ptr<const ScenarioPrototype>> prototypes(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si) {
    if (!specs[si].custom_run && specs[si].mode != RunMode::kVerify)
      prototypes[si] = ScenarioPrototype::build(specs[si]);
  }

  std::vector<RunSlot> slots(items.size());

  std::size_t threads = options_.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::max<std::size_t>(1, std::min(threads, items.size()));

  // Work claiming is chunked: one fetch_add hands a worker a contiguous
  // block of slots instead of a single run, so the shared counter is
  // touched ~chunk× less often and neighboring workers don't ping-pong
  // its cache line between every (tens-of-microseconds) run.  Chunks are
  // small enough that the tail imbalance stays below ~1% of the work.
  const std::size_t chunk = items.empty()
                                ? 1
                                : std::clamp<std::size_t>(
                                      items.size() / (threads * 16), 1, 64);
  alignas(64) std::atomic<std::size_t> next{0};

  auto worker = [&] {
    while (true) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= items.size()) return;
      const std::size_t end = std::min(begin + chunk, items.size());
      for (std::size_t i = begin; i < end; ++i) {
        const ScenarioSpec& spec = specs[items[i].spec];
        const std::uint64_t seed = spec.seeds[items[i].seed_index];
        RunSlot& slot = slots[i];
        const auto t0 = steady_clock::now();
        try {
          if (spec.custom_run) {
            slot.result = spec.custom_run(spec, seed);
          } else {
            // Raw prototype pointer: no shared_ptr refcount traffic on
            // the per-run hot path (the runner owns the prototypes for
            // the whole campaign).
            SimulationContext ctx(spec, seed, prototypes[items[i].spec].get());
            slot.result = ctx.execute();
          }
          slot.result.seed = seed;
          slot.result.wall_seconds = seconds_since(t0);
          slot.ok = true;
        } catch (const std::exception& e) {
          slot.error = e.what();
        }
      }
    }
  };

  const auto campaign_t0 = steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  // Monte-Carlo throughput is judged on the Monte-Carlo phase alone;
  // exhaustive verification below has its own per-spec wall_seconds.
  const double monte_carlo_wall = seconds_since(campaign_t0);

  // Exhaustive verification of kVerify / kBoth specs (one check per
  // spec, not per seed — the adversary quantifies over every execution).
  std::vector<std::optional<VerificationOutcome>> verifications(specs.size());
  std::vector<std::string> verify_errors;
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const ScenarioSpec& spec = specs[si];
    if (spec.mode == RunMode::kMonteCarlo) continue;
    const auto t0 = steady_clock::now();
    VerificationOutcome vo;
    try {
      const verify::VerifyInput input = spec.verify_input();
      const verify::CompiledModel model = verify::compile_model(input);
      verify::VerifyOptions vopt;
      vopt.max_losses = spec.verify.max_losses;
      vopt.max_injections = spec.verify.max_injections;
      vopt.max_input_changes = spec.verify.max_input_changes;
      vopt.max_states = spec.verify.max_states;
      vopt.threads = spec.verify.threads;
      const verify::VerifyResult vr = verify::verify_pte(model, vopt);
      vo.status = vr.status;
      vo.states_explored = vr.states_explored;
      vo.states_stored = vr.states_stored;
      vo.transitions = vr.transitions;
      vo.threads_used = vr.threads_used;
      vo.sketch = vr.sketch;
      vo.counterexample = vr.counterexample;
      if (vo.counterexample.has_value() && spec.verify.replay) {
        vo.replay_attempted = true;
        const verify::ReplayResult rr =
            verify::replay_counterexample(input, *vo.counterexample);
        vo.replay_reproduced = rr.reproduced;
        vo.replay_detail = rr.summary();
      }
    } catch (const std::exception& e) {
      verify_errors.push_back(util::cat(spec.name, "[verify]: ", e.what()));
      vo.status = verify::VerifyStatus::kOutOfBudget;
    }
    vo.wall_seconds = seconds_since(t0);
    verifications[si] = std::move(vo);
  }

  // Sequential aggregation in slot order — the deterministic merge.
  CampaignReport report;
  report.threads = threads;
  report.wall_seconds = seconds_since(campaign_t0);
  report.total_runs = items.size();
  report.scenarios.resize(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si)
    report.scenarios[si].name = specs[si].name;

  std::vector<std::vector<double>> walls(specs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ScenarioOutcome& out = report.scenarios[items[i].spec];
    RunSlot& slot = slots[i];
    if (!slot.ok) {
      ++out.failed_runs;
      ++report.failed_runs;
      report.errors.push_back(util::cat(out.name, "[", specs[items[i].spec].seeds[items[i].seed_index],
                                        "]: ", slot.error));
      continue;
    }
    RunResult& r = slot.result;
    out.total_violations += r.violations;
    out.total_sessions += r.session.sessions;
    out.censored_sessions += r.session.censored_sessions;
    out.network.sent += r.network.sent;
    out.network.delivered += r.network.delivered;
    out.network.lost += r.network.lost;
    out.network.corrupted += r.network.corrupted;
    out.network.rejected_late += r.network.rejected_late;
    out.network.duplicated += r.network.duplicated;
    walls[items[i].spec].push_back(r.wall_seconds);
    if (!options_.keep_violations) r.violation_list.clear();
    out.runs.push_back(std::move(r));
  }
  for (std::size_t si = 0; si < specs.size(); ++si) {
    ScenarioOutcome& out = report.scenarios[si];
    out.verification = std::move(verifications[si]);
    report.total_violations += out.total_violations;
    report.censored_sessions += out.censored_sessions;
    if (out.verification.has_value()) {
      if (out.verification->status == verify::VerifyStatus::kProved) ++report.specs_proved;
      if (out.verification->counterexample.has_value())
        ++report.specs_with_counterexample;
    }
    if (walls[si].empty()) continue;
    util::RunningStats stats;
    for (double w : walls[si]) stats.add(w);
    out.wall_mean_s = stats.mean();
    out.wall_p50_s = util::quantile(walls[si], 0.5);
    out.wall_p99_s = util::quantile(walls[si], 0.99);
  }
  for (std::string& e : verify_errors) report.errors.push_back(std::move(e));
  if (monte_carlo_wall > 0.0)
    report.runs_per_second = static_cast<double>(report.total_runs) / monte_carlo_wall;
  return report;
}

bool CampaignReport::ok() const {
  if (failed_runs != 0 || !errors.empty()) return false;
  for (const ScenarioOutcome& s : scenarios) {
    if (s.verification.has_value() &&
        s.verification->status == verify::VerifyStatus::kOutOfBudget)
      return false;
  }
  return true;
}

util::Json CampaignReport::to_json() const {
  util::Json out = util::Json::object();
  out.set("threads", threads);
  out.set("total_runs", total_runs);
  out.set("total_violations", total_violations);
  out.set("failed_runs", failed_runs);
  out.set("wall_seconds", wall_seconds);
  out.set("runs_per_second", runs_per_second);
  util::Json scenario_list = util::Json::array();
  for (const ScenarioOutcome& s : scenarios) {
    util::Json row = util::Json::object();
    row.set("name", s.name);
    row.set("runs", s.runs.size());
    row.set("violations", s.total_violations);
    row.set("sessions", s.total_sessions);
    row.set("censored_sessions", s.censored_sessions);
    row.set("failed_runs", s.failed_runs);
    row.set("packets_sent", s.network.sent);
    row.set("packets_delivered", s.network.delivered);
    row.set("wall_mean_s", s.wall_mean_s);
    row.set("wall_p50_s", s.wall_p50_s);
    row.set("wall_p99_s", s.wall_p99_s);
    if (s.verification.has_value()) {
      const VerificationOutcome& v = *s.verification;
      util::Json vj = util::Json::object();
      vj.set("status", verify::verify_status_str(v.status));
      vj.set("states_explored", v.states_explored);
      vj.set("states_stored", v.states_stored);
      vj.set("transitions", v.transitions);
      vj.set("threads_used", v.threads_used);
      vj.set("replay_attempted", v.replay_attempted);
      vj.set("replay_reproduced", v.replay_reproduced);
      // Only when present, so pre-existing cached reports re-render
      // byte-identically.
      if (!v.replay_detail.empty()) vj.set("replay_detail", v.replay_detail);
      // Only when the exploration stored anything, so reports (and
      // cached JSON) written before the sketch feature re-render
      // byte-identically.
      if (v.sketch.distinct > 0) {
        util::Json sk = util::Json::object();
        sk.set("distinct", v.sketch.distinct);
        sk.set("bits", v.sketch.bits_hex());
        vj.set("sketch", std::move(sk));
      }
      vj.set("wall_seconds", v.wall_seconds);
      if (v.counterexample.has_value())
        vj.set("counterexample", v.counterexample->to_json());
      row.set("verification", std::move(vj));
    }
    scenario_list.push_back(std::move(row));
  }
  out.set("scenarios", std::move(scenario_list));
  out.set("censored_sessions", censored_sessions);
  out.set("specs_proved", specs_proved);
  out.set("specs_with_counterexample", specs_with_counterexample);
  util::Json error_list = util::Json::array();
  for (const std::string& e : errors) error_list.push_back(e);
  out.set("errors", std::move(error_list));
  return out;
}

namespace {

verify::VerifyStatus status_from_str(util::JsonReader& r, const std::string& s) {
  for (const verify::VerifyStatus v :
       {verify::VerifyStatus::kProved, verify::VerifyStatus::kViolation,
        verify::VerifyStatus::kOutOfBudget}) {
    if (verify::verify_status_str(v) == s) return v;
  }
  r.fail("status", util::cat("unknown verification status \"", s, "\""));
}

VerificationOutcome verification_from_json(const util::Json& j, const std::string& ctx) {
  util::JsonReader r(j, ctx);
  VerificationOutcome v;
  v.status = status_from_str(r, r.string("status", ""));
  v.states_explored = r.uinteger("states_explored", 0);
  v.states_stored = r.uinteger("states_stored", 0);
  v.transitions = r.uinteger("transitions", 0);
  v.threads_used = r.uinteger("threads_used", 0);
  v.replay_attempted = r.boolean("replay_attempted", false);
  v.replay_reproduced = r.boolean("replay_reproduced", false);
  v.replay_detail = r.string("replay_detail", "");
  if (const util::Json* sk = r.optional("sketch")) {
    util::JsonReader kr(*sk, util::cat(ctx, ".sketch"));
    v.sketch.distinct = kr.uinteger("distinct", 0);
    if (!v.sketch.set_bits_hex(kr.string("bits", "")))
      kr.fail("bits", "malformed fingerprint bitmap hex");
    kr.finish();
  }
  v.wall_seconds = r.number("wall_seconds", 0.0);
  if (const util::Json* cx = r.optional("counterexample"))
    v.counterexample = verify::Counterexample::from_json(*cx);
  r.finish();
  return v;
}

/// Non-finite aggregates serialize as null; read those back as 0.
double finite_or_zero(util::JsonReader& r, std::string_view key) {
  const util::Json* j = r.optional(key);
  return (j != nullptr && j->is_number()) ? j->as_double() : 0.0;
}

}  // namespace

CampaignReport CampaignReport::from_json(const util::Json& j) {
  util::JsonReader r(j, "campaign");
  CampaignReport report;
  report.threads = r.uinteger("threads", 1);
  report.total_runs = r.uinteger("total_runs", 0);
  report.total_violations = r.uinteger("total_violations", 0);
  report.failed_runs = r.uinteger("failed_runs", 0);
  report.censored_sessions = r.uinteger("censored_sessions", 0);
  report.specs_proved = r.uinteger("specs_proved", 0);
  report.specs_with_counterexample = r.uinteger("specs_with_counterexample", 0);
  report.wall_seconds = r.number("wall_seconds", 0.0);
  report.runs_per_second = finite_or_zero(r, "runs_per_second");
  if (const util::Json* rows = r.optional("scenarios")) {
    for (const util::Json& row : rows->as_array()) {
      util::JsonReader sr(row, "campaign.scenario");
      ScenarioOutcome out;
      out.name = sr.string("name", "");
      // Per-run detail is not serialized; placeholders keep runs.size()
      // (and thus the re-rendered JSON) identical to the source report.
      out.runs.resize(sr.uinteger("runs", 0));
      out.total_violations = sr.uinteger("violations", 0);
      out.total_sessions = sr.uinteger("sessions", 0);
      out.censored_sessions = sr.uinteger("censored_sessions", 0);
      out.failed_runs = sr.uinteger("failed_runs", 0);
      out.network.sent = sr.uinteger("packets_sent", 0);
      out.network.delivered = sr.uinteger("packets_delivered", 0);
      out.wall_mean_s = sr.number("wall_mean_s", 0.0);
      out.wall_p50_s = sr.number("wall_p50_s", 0.0);
      out.wall_p99_s = sr.number("wall_p99_s", 0.0);
      if (const util::Json* v = sr.optional("verification"))
        out.verification = verification_from_json(*v, "campaign.verification");
      sr.finish();
      report.scenarios.push_back(std::move(out));
    }
  }
  if (const util::Json* errs = r.optional("errors")) {
    for (const util::Json& e : errs->as_array()) report.errors.push_back(e.as_string());
  }
  r.finish();
  return report;
}

std::string CampaignReport::json() const { return to_json().dump(2); }

std::string CampaignReport::summary() const {
  std::string out =
      util::cat("campaign: ", total_runs, " runs over ", scenarios.size(),
                " scenario(s) on ", threads, " thread(s) in ",
                util::fmt_double(wall_seconds, 3), " s (",
                util::fmt_double(runs_per_second, 1), " runs/s); violations=",
                total_violations, " failed_runs=", failed_runs,
                " censored_sessions=", censored_sessions);
  if (specs_proved + specs_with_counterexample > 0)
    out += util::cat("; verified: ", specs_proved, " proved, ",
                     specs_with_counterexample, " with counterexample");
  return out;
}

}  // namespace ptecps::campaign
