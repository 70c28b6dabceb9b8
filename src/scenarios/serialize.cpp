#include "scenarios/serialize.hpp"

#include <limits>
#include <vector>

#include "util/text.hpp"

namespace ptecps::scenarios {

using util::Json;
using util::JsonError;
using Reader = util::JsonReader;

namespace {

double probability(Reader& r, std::string_view key, double fallback) {
  const double p = r.number(key, fallback);
  if (p < 0.0 || p > 1.0)
    r.fail(key, util::cat("probability out of [0,1]: ", p));
  return p;
}

// ---------------------------------------------------------------------------
// Enum spellings
// ---------------------------------------------------------------------------

std::string topology_str(Topology t) {
  return t == Topology::kStar ? "star" : "chained-bridge";
}

std::string action_kind_str(Action::Kind k) {
  switch (k) {
    case Action::Kind::kInject: return "inject";
    case Action::Kind::kKillUplink: return "kill-uplink";
    case Action::Kind::kKillDownlink: return "kill-downlink";
    case Action::Kind::kSetVar: return "set-var";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

Json config_to_json(const core::PatternConfig& c) {
  Json entities = Json::array();
  for (const core::EntityTiming& e : c.entities) {
    Json one = Json::object();
    one.set("t_enter_max", e.t_enter_max);
    one.set("t_run_max", e.t_run_max);
    one.set("t_exit", e.t_exit);
    entities.push_back(std::move(one));
  }
  Json risky = Json::array();
  for (double v : c.t_risky_min) risky.push_back(v);
  Json safe = Json::array();
  for (double v : c.t_safe_min) safe.push_back(v);
  Json out = Json::object();
  out.set("n_remotes", c.n_remotes);
  out.set("t_fb_min_0", c.t_fb_min_0);
  out.set("t_wait_max", c.t_wait_max);
  out.set("t_req_max_n", c.t_req_max_n);
  out.set("entities", std::move(entities));
  out.set("t_risky_min", std::move(risky));
  out.set("t_safe_min", std::move(safe));
  out.set("delivery_slack", c.delivery_slack);
  return out;
}

Json attacker_to_json(const attack::AttackerModel& a) {
  using Kind = attack::AttackerModel::Kind;
  Json out = Json::object();
  out.set("kind", attack::attacker_kind_str(a.kind));
  if (a.kind == Kind::kNone) return out;  // nothing to parameterize
  out.set("intensity", a.intensity);
  if (a.budget > 0) out.set("budget", a.budget);
  switch (a.kind) {
    case Kind::kNone: break;
    case Kind::kBernoulli: out.set("p", a.p); break;
    case Kind::kGilbertElliott:
      out.set("p_gb", a.p_gb);
      out.set("p_bg", a.p_bg);
      out.set("loss_good", a.loss_good);
      out.set("loss_bad", a.loss_bad);
      break;
    case Kind::kInterference:
      out.set("period", a.period);
      out.set("burst", a.burst);
      out.set("loss_burst", a.loss_burst);
      out.set("loss_idle", a.loss_idle);
      out.set("phase", a.phase);
      break;
    case Kind::kScripted: {
      Json verdicts = Json::array();
      for (bool lost : a.script) verdicts.push_back(lost);
      out.set("script", std::move(verdicts));
      break;
    }
    case Kind::kSustainedJammer: out.set("kill_prob", a.kill_prob); break;
    case Kind::kReactiveJammer:
      out.set("sense_prob", a.sense_prob);
      out.set("jam_len", a.jam_len);
      out.set("kill_prob", a.kill_prob);
      break;
  }
  return out;
}

/// Like attacker_to_json, but family parameters equal to the reader's
/// fallback values are omitted — the strict reader re-derives them.
Json attacker_to_json_sparse(const attack::AttackerModel& a) {
  using Kind = attack::AttackerModel::Kind;
  const attack::AttackerModel defaults;
  Json out = Json::object();
  out.set("kind", attack::attacker_kind_str(a.kind));
  if (a.kind == Kind::kNone) return out;
  if (a.intensity != 1.0) out.set("intensity", a.intensity);
  if (a.budget > 0) out.set("budget", a.budget);
  switch (a.kind) {
    case Kind::kNone: break;
    case Kind::kBernoulli:
      if (a.p != 0.0) out.set("p", a.p);
      break;
    case Kind::kGilbertElliott:
      if (a.p_gb != defaults.p_gb) out.set("p_gb", a.p_gb);
      if (a.p_bg != defaults.p_bg) out.set("p_bg", a.p_bg);
      if (a.loss_good != defaults.loss_good) out.set("loss_good", a.loss_good);
      if (a.loss_bad != defaults.loss_bad) out.set("loss_bad", a.loss_bad);
      break;
    case Kind::kInterference:
      if (a.period != defaults.period) out.set("period", a.period);
      if (a.burst != defaults.burst) out.set("burst", a.burst);
      if (a.loss_burst != defaults.loss_burst) out.set("loss_burst", a.loss_burst);
      if (a.loss_idle != defaults.loss_idle) out.set("loss_idle", a.loss_idle);
      if (a.phase != defaults.phase) out.set("phase", a.phase);
      break;
    case Kind::kScripted: {
      if (!a.script.empty()) {
        Json verdicts = Json::array();
        for (bool lost : a.script) verdicts.push_back(lost);
        out.set("script", std::move(verdicts));
      }
      break;
    }
    case Kind::kSustainedJammer:
      if (a.kill_prob != defaults.kill_prob) out.set("kill_prob", a.kill_prob);
      break;
    case Kind::kReactiveJammer:
      if (a.sense_prob != defaults.sense_prob) out.set("sense_prob", a.sense_prob);
      if (a.jam_len != defaults.jam_len) out.set("jam_len", a.jam_len);
      if (a.kill_prob != defaults.kill_prob) out.set("kill_prob", a.kill_prob);
      break;
  }
  return out;
}

Json actions_to_json(const std::vector<Action>& list) {
  Json actions = Json::array();
  for (const Action& a : list) {
    Json one = Json::object();
    one.set("kind", action_kind_str(a.kind));
    one.set("t", a.t);
    one.set("entity", a.entity);
    if (a.kind == Action::Kind::kInject || a.kind == Action::Kind::kSetVar)
      one.set("name", a.name);
    if (a.kind == Action::Kind::kSetVar) one.set("value", a.value);
    actions.push_back(std::move(one));
  }
  return actions;
}

Json script_to_json(const StimulusScript& s) {
  Json actions = actions_to_json(s.actions);
  Json out = Json::object();
  out.set("period", s.period);
  out.set("phase", s.phase);
  out.set("on_for", s.on_for);
  out.set("actions", std::move(actions));
  return out;
}

Json verify_to_json(const campaign::VerifySpec& v) {
  Json roots = Json::array();
  for (const std::string& r : v.stimuli_roots) roots.push_back(r);
  Json out = Json::object();
  out.set("max_losses", v.max_losses);
  out.set("max_injections", v.max_injections);
  out.set("max_input_changes", v.max_input_changes);
  out.set("max_states", v.max_states);
  out.set("threads", v.threads);
  out.set("delivery_min", v.delivery_min);
  out.set("delivery_max", v.delivery_max);
  out.set("stimuli_roots", std::move(roots));
  out.set("replay", v.replay);
  return out;
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

core::PatternConfig config_from_json(const Json& j, const std::string& context) {
  Reader r(j, context);
  // A "config" object describes a fresh PatternConfig (field defaults),
  // not a patch of the laser preset ScenarioParams defaults to.
  core::PatternConfig c;
  c.n_remotes = r.uinteger("n_remotes", c.n_remotes);
  c.t_fb_min_0 = r.number("t_fb_min_0", c.t_fb_min_0);
  c.t_wait_max = r.number("t_wait_max", c.t_wait_max);
  c.t_req_max_n = r.number("t_req_max_n", c.t_req_max_n);
  c.delivery_slack = r.number("delivery_slack", c.delivery_slack);
  if (const Json* entities = r.optional("entities")) {
    for (std::size_t i = 0; i < entities->as_array().size(); ++i) {
      Reader er(entities->as_array()[i], util::cat(context, ".entities[", i, "]"));
      core::EntityTiming e;
      e.t_enter_max = er.number("t_enter_max", 0.0);
      e.t_run_max = er.number("t_run_max", 0.0);
      e.t_exit = er.number("t_exit", 0.0);
      er.finish();
      c.entities.push_back(e);
    }
  }
  if (const Json* risky = r.optional("t_risky_min"))
    for (const Json& v : risky->as_array()) c.t_risky_min.push_back(v.as_double());
  if (const Json* safe = r.optional("t_safe_min"))
    for (const Json& v : safe->as_array()) c.t_safe_min.push_back(v.as_double());
  r.finish();
  return c;
}

/// The shared per-family parameter block of v2 "attacker" objects and
/// (minus intensity/budget) legacy v1 "loss" objects.
attack::AttackerModel attacker_family_from(Reader& r, const std::string& kind) {
  using attack::AttackerModel;
  AttackerModel a;
  const AttackerModel defaults;
  if (kind == "none" || kind == "perfect") {  // "perfect" is the v1 spelling
    a = AttackerModel::none();
  } else if (kind == "bernoulli") {
    a = AttackerModel::bernoulli(probability(r, "p", 0.0));
  } else if (kind == "gilbert-elliott") {
    a = AttackerModel::gilbert_elliott(
        probability(r, "p_gb", defaults.p_gb), probability(r, "p_bg", defaults.p_bg),
        probability(r, "loss_good", defaults.loss_good),
        probability(r, "loss_bad", defaults.loss_bad));
  } else if (kind == "interference") {
    a = AttackerModel::interference(r.number("period", defaults.period),
                                    r.number("burst", defaults.burst),
                                    probability(r, "loss_burst", defaults.loss_burst),
                                    probability(r, "loss_idle", defaults.loss_idle),
                                    r.number("phase", defaults.phase));
  } else if (kind == "scripted") {
    std::vector<bool> verdicts;
    if (const Json* script = r.optional("script"))
      for (const Json& v : script->as_array()) verdicts.push_back(v.as_bool());
    a = AttackerModel::scripted(std::move(verdicts));
  } else if (kind == "sustained-jammer") {
    a = AttackerModel::sustained_jammer(probability(r, "kill_prob", defaults.kill_prob));
  } else if (kind == "reactive-jammer") {
    a = AttackerModel::reactive_jammer(probability(r, "sense_prob", defaults.sense_prob),
                                       r.number("jam_len", defaults.jam_len),
                                       probability(r, "kill_prob", defaults.kill_prob));
  } else {
    r.fail("kind", util::cat("unknown attacker \"", kind,
                             "\" (none, bernoulli, gilbert-elliott, interference, "
                             "scripted, sustained-jammer, reactive-jammer)"));
  }
  return a;
}

attack::AttackerModel attacker_from_json(const Json& j, const std::string& context) {
  Reader r(j, context);
  const std::string kind = r.string("kind", "none");
  attack::AttackerModel a = attacker_family_from(r, kind);
  if (a.kind != attack::AttackerModel::Kind::kNone) {
    a.with_intensity(probability(r, "intensity", 1.0));
    a.with_budget(r.uinteger("budget", 0));
  }
  r.finish();
  return a;
}

/// Legacy v1 "loss" object → the equivalent degenerate attacker (full
/// intensity, no ammunition budget of its own).
attack::AttackerModel legacy_loss_from_json(const Json& j, const std::string& context) {
  Reader r(j, context);
  const std::string kind = r.string("kind", "perfect");
  attack::AttackerModel a = attacker_family_from(r, kind);
  r.finish();
  return a;
}

net::EntityId entity_from(Reader& r) {
  const std::uint64_t id = r.uinteger("entity", 0);
  if (id > std::numeric_limits<net::EntityId>::max())
    r.fail("entity", util::cat("entity id out of range: ", id));
  return static_cast<net::EntityId>(id);
}

StimulusScript script_from_json(const Json& j, const std::string& context) {
  Reader r(j, context);
  StimulusScript s;
  s.period = r.number("period", s.period);
  s.phase = r.number("phase", s.phase);
  s.on_for = r.number("on_for", s.on_for);
  if (const Json* actions = r.optional("actions")) {
    for (std::size_t i = 0; i < actions->as_array().size(); ++i) {
      Reader ar(actions->as_array()[i], util::cat(context, ".actions[", i, "]"));
      const std::string kind = ar.string("kind", "inject");
      const double t = ar.number("t", 0.0);
      const net::EntityId entity = entity_from(ar);
      Action a;
      if (kind == "inject") {
        a = Action::inject(t, entity, ar.string("name", ""));
        if (a.name.empty()) ar.fail("name", "inject action needs an event root");
      } else if (kind == "kill-uplink") {
        a = Action::kill_uplink(t, entity);
      } else if (kind == "kill-downlink") {
        a = Action::kill_downlink(t, entity);
      } else if (kind == "set-var") {
        a = Action::set_var(t, entity, ar.string("name", ""), ar.number("value", 0.0));
        if (a.name.empty()) ar.fail("name", "set-var action needs a variable name");
      } else {
        ar.fail("kind", util::cat("unknown action \"", kind,
                                  "\" (inject, kill-uplink, kill-downlink, set-var)"));
      }
      ar.finish();
      s.actions.push_back(std::move(a));
    }
  }
  r.finish();
  return s;
}

campaign::VerifySpec verify_from_json(const Json& j, const std::string& context) {
  Reader r(j, context);
  campaign::VerifySpec v;
  v.max_losses = r.uinteger("max_losses", v.max_losses);
  v.max_injections = r.uinteger("max_injections", v.max_injections);
  v.max_input_changes = r.uinteger("max_input_changes", v.max_input_changes);
  v.max_states = r.uinteger("max_states", v.max_states);
  v.threads = r.uinteger("threads", v.threads);
  v.delivery_min = r.number("delivery_min", v.delivery_min);
  v.delivery_max = r.number("delivery_max", v.delivery_max);
  if (const Json* roots = r.optional("stimuli_roots")) {
    v.stimuli_roots.clear();
    for (const Json& root : roots->as_array()) v.stimuli_roots.push_back(root.as_string());
  }
  v.replay = r.boolean("replay", v.replay);
  r.finish();
  return v;
}

}  // namespace

std::optional<verify::VerifyStatus> verify_status_from_str(std::string_view s) {
  if (s == "proved") return verify::VerifyStatus::kProved;
  if (s == "violation") return verify::VerifyStatus::kViolation;
  if (s == "out-of-budget") return verify::VerifyStatus::kOutOfBudget;
  return std::nullopt;
}

std::string run_mode_str(campaign::RunMode mode) {
  switch (mode) {
    case campaign::RunMode::kMonteCarlo: return "monte-carlo";
    case campaign::RunMode::kVerify: return "verify";
    case campaign::RunMode::kBoth: return "both";
  }
  return "?";
}

std::optional<campaign::RunMode> run_mode_from_str(std::string_view s) {
  if (s == "monte-carlo") return campaign::RunMode::kMonteCarlo;
  if (s == "verify") return campaign::RunMode::kVerify;
  if (s == "both") return campaign::RunMode::kBoth;
  return std::nullopt;
}

Json to_json(const ScenarioDocument& doc) {
  const ScenarioParams& p = doc.params;
  Json out = Json::object();
  out.set("schema", "ptecps-scenario");
  out.set("version", kScenarioSchemaVersion);
  out.set("name", p.name);
  if (!doc.summary.empty()) out.set("summary", doc.summary);
  if (doc.expected.has_value())
    out.set("expected", verify::verify_status_str(*doc.expected));
  if (!doc.notes.empty()) {
    Json notes = Json::array();
    for (const std::string& n : doc.notes) notes.push_back(n);
    out.set("notes", std::move(notes));
  }
  out.set("config", config_to_json(p.config));
  Json approval = Json::object();
  approval.set("var_name", p.approval.var_name);
  approval.set("init", p.approval.init);
  approval.set("threshold", p.approval.threshold);
  out.set("approval", std::move(approval));
  out.set("with_lease", p.with_lease);
  out.set("deadline_wait", p.deadline_wait);
  out.set("dwell_bound", p.dwell_bound);
  out.set("topology", topology_str(p.topology));
  out.set("relay_loss", p.relay_loss);
  Json channel = Json::object();
  channel.set("delay", p.channel.delay);
  channel.set("delay_jitter", p.channel.delay_jitter);
  channel.set("bit_error_prob", p.channel.bit_error_prob);
  channel.set("acceptance_window", p.channel.acceptance_window);
  channel.set("duplicate_prob", p.channel.duplicate_prob);
  channel.set("duplicate_lag", p.channel.duplicate_lag);
  out.set("channel", std::move(channel));
  out.set("attacker", attacker_to_json(p.attacker));
  out.set("horizon", p.horizon);
  out.set("script", script_to_json(p.script));
  out.set("seed_base", p.seed_base);
  out.set("seed_count", p.seed_count);
  out.set("mode", run_mode_str(p.mode));
  out.set("verify", verify_to_json(p.verify));
  return out;
}

Json to_json(const ScenarioParams& params) {
  return to_json(ScenarioDocument{params, "", std::nullopt, {}});
}

Json to_json_sparse(const ScenarioDocument& doc) {
  const ScenarioParams defaults;
  const ScenarioParams& p = doc.params;
  Json out = Json::object();
  out.set("name", p.name);
  if (!doc.summary.empty()) out.set("summary", doc.summary);
  if (doc.expected.has_value())
    out.set("expected", verify::verify_status_str(*doc.expected));
  if (!doc.notes.empty()) {
    Json notes = Json::array();
    for (const std::string& n : doc.notes) notes.push_back(n);
    out.set("notes", std::move(notes));
  }
  if (!(p.config == defaults.config)) out.set("config", config_to_json(p.config));
  Json approval = Json::object();
  if (p.approval.var_name != defaults.approval.var_name)
    approval.set("var_name", p.approval.var_name);
  if (p.approval.init != defaults.approval.init) approval.set("init", p.approval.init);
  if (p.approval.threshold != defaults.approval.threshold)
    approval.set("threshold", p.approval.threshold);
  if (!approval.as_object().empty()) out.set("approval", std::move(approval));
  if (p.with_lease != defaults.with_lease) out.set("with_lease", p.with_lease);
  if (p.deadline_wait != defaults.deadline_wait)
    out.set("deadline_wait", p.deadline_wait);
  if (p.dwell_bound != defaults.dwell_bound) out.set("dwell_bound", p.dwell_bound);
  if (p.topology != defaults.topology) out.set("topology", topology_str(p.topology));
  if (p.relay_loss != defaults.relay_loss) out.set("relay_loss", p.relay_loss);
  Json channel = Json::object();
  if (p.channel.delay != defaults.channel.delay) channel.set("delay", p.channel.delay);
  if (p.channel.delay_jitter != defaults.channel.delay_jitter)
    channel.set("delay_jitter", p.channel.delay_jitter);
  if (p.channel.bit_error_prob != defaults.channel.bit_error_prob)
    channel.set("bit_error_prob", p.channel.bit_error_prob);
  if (p.channel.acceptance_window != defaults.channel.acceptance_window)
    channel.set("acceptance_window", p.channel.acceptance_window);
  if (p.channel.duplicate_prob != defaults.channel.duplicate_prob)
    channel.set("duplicate_prob", p.channel.duplicate_prob);
  if (p.channel.duplicate_lag != defaults.channel.duplicate_lag)
    channel.set("duplicate_lag", p.channel.duplicate_lag);
  if (!channel.as_object().empty()) out.set("channel", std::move(channel));
  if (!(p.attacker == defaults.attacker))
    out.set("attacker", attacker_to_json_sparse(p.attacker));
  if (p.horizon != defaults.horizon) out.set("horizon", p.horizon);
  Json script = Json::object();
  if (p.script.period != defaults.script.period) script.set("period", p.script.period);
  if (p.script.phase != defaults.script.phase) script.set("phase", p.script.phase);
  if (p.script.on_for != defaults.script.on_for) script.set("on_for", p.script.on_for);
  if (!p.script.actions.empty()) script.set("actions", actions_to_json(p.script.actions));
  if (!script.as_object().empty()) out.set("script", std::move(script));
  if (p.seed_base != defaults.seed_base) out.set("seed_base", p.seed_base);
  if (p.seed_count != defaults.seed_count) out.set("seed_count", p.seed_count);
  if (p.mode != defaults.mode) out.set("mode", run_mode_str(p.mode));
  Json verify = Json::object();
  const campaign::VerifySpec& v = p.verify;
  const campaign::VerifySpec& dv = defaults.verify;
  if (v.max_losses != dv.max_losses) verify.set("max_losses", v.max_losses);
  if (v.max_injections != dv.max_injections)
    verify.set("max_injections", v.max_injections);
  if (v.max_input_changes != dv.max_input_changes)
    verify.set("max_input_changes", v.max_input_changes);
  if (v.max_states != dv.max_states) verify.set("max_states", v.max_states);
  if (v.threads != dv.threads) verify.set("threads", v.threads);
  if (v.delivery_min != dv.delivery_min) verify.set("delivery_min", v.delivery_min);
  if (v.delivery_max != dv.delivery_max) verify.set("delivery_max", v.delivery_max);
  if (!v.stimuli_roots.empty()) {
    Json roots = Json::array();
    for (const std::string& root : v.stimuli_roots) roots.push_back(root);
    verify.set("stimuli_roots", std::move(roots));
  }
  if (v.replay != dv.replay) verify.set("replay", v.replay);
  if (!verify.as_object().empty()) out.set("verify", std::move(verify));
  return out;
}

ScenarioDocument document_from_json(const Json& j) {
  Reader r(j, "scenario");
  const std::string schema = r.string("schema", "ptecps-scenario");
  if (schema != "ptecps-scenario")
    r.fail("schema", util::cat("not a scenario file: \"", schema, "\""));
  const std::uint64_t version =
      r.uinteger("version", static_cast<std::uint64_t>(kScenarioSchemaVersion));
  // Version 1 is still readable: its "loss" object becomes the
  // equivalent degenerate attacker below.
  if (version != static_cast<std::uint64_t>(kScenarioSchemaVersion) && version != 1)
    r.fail("version", util::cat("unsupported schema version ", version, " (reader is ",
                                kScenarioSchemaVersion, ")"));

  ScenarioDocument doc;
  ScenarioParams& p = doc.params;
  p.name = r.string("name", p.name);
  doc.summary = r.string("summary", "");
  const std::string expected = r.string("expected", "");
  if (!expected.empty()) {
    doc.expected = verify_status_from_str(expected);
    if (!doc.expected.has_value())
      r.fail("expected", util::cat("unknown verdict \"", expected,
                                   "\" (proved, violation, out-of-budget)"));
  }
  if (const Json* notes = r.optional("notes"))
    for (const Json& n : notes->as_array()) doc.notes.push_back(n.as_string());
  if (const Json* config = r.optional("config"))
    p.config = config_from_json(*config, "scenario.config");
  if (const Json* approval = r.optional("approval")) {
    Reader ar(*approval, "scenario.approval");
    p.approval.var_name = ar.string("var_name", p.approval.var_name);
    p.approval.init = ar.number("init", p.approval.init);
    p.approval.threshold = ar.number("threshold", p.approval.threshold);
    ar.finish();
  }
  p.with_lease = r.boolean("with_lease", p.with_lease);
  p.deadline_wait = r.boolean("deadline_wait", p.deadline_wait);
  p.dwell_bound = r.number("dwell_bound", p.dwell_bound);
  const std::string topology = r.string("topology", topology_str(p.topology));
  if (topology == "star") {
    p.topology = Topology::kStar;
  } else if (topology == "chained-bridge") {
    p.topology = Topology::kChainedBridge;
  } else {
    r.fail("topology",
           util::cat("unknown topology \"", topology, "\" (star, chained-bridge)"));
  }
  p.relay_loss = probability(r, "relay_loss", p.relay_loss);
  if (const Json* channel = r.optional("channel")) {
    Reader cr(*channel, "scenario.channel");
    p.channel.delay = cr.number("delay", p.channel.delay);
    p.channel.delay_jitter = cr.number("delay_jitter", p.channel.delay_jitter);
    p.channel.bit_error_prob = probability(cr, "bit_error_prob", p.channel.bit_error_prob);
    p.channel.acceptance_window = cr.number("acceptance_window", p.channel.acceptance_window);
    p.channel.duplicate_prob = probability(cr, "duplicate_prob", p.channel.duplicate_prob);
    p.channel.duplicate_lag = cr.number("duplicate_lag", p.channel.duplicate_lag);
    cr.finish();
  }
  if (version == 1) {
    // The strict reader still rejects an "attacker" key here: a v1
    // document carrying v2 vocabulary is a versioning mistake, not a
    // deployment.
    if (const Json* loss = r.optional("loss"))
      p.attacker = legacy_loss_from_json(*loss, "scenario.loss");
  } else if (const Json* attacker = r.optional("attacker")) {
    p.attacker = attacker_from_json(*attacker, "scenario.attacker");
  }
  p.horizon = r.number("horizon", p.horizon);
  if (const Json* script = r.optional("script"))
    p.script = script_from_json(*script, "scenario.script");
  p.seed_base = r.uinteger("seed_base", p.seed_base);
  p.seed_count = r.uinteger("seed_count", p.seed_count);
  const std::string mode = r.string("mode", run_mode_str(p.mode));
  if (const auto parsed = run_mode_from_str(mode)) {
    p.mode = *parsed;
  } else {
    r.fail("mode", util::cat("unknown mode \"", mode, "\" (monte-carlo, verify, both)"));
  }
  if (const Json* verify = r.optional("verify"))
    p.verify = verify_from_json(*verify, "scenario.verify");
  r.finish();
  return doc;
}

ScenarioParams params_from_json(const Json& j) { return document_from_json(j).params; }

ScenarioDocument document_from_text(std::string_view text) {
  return document_from_json(Json::parse(text));
}

}  // namespace ptecps::scenarios
