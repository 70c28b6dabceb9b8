#include "api/job.hpp"

#include "util/text.hpp"

namespace ptecps::api {

using util::Json;
using util::JsonReader;

namespace {

Json tuning_to_json(const scenarios::RegistryTuning& t) {
  Json out = Json::object();
  if (t.seed_count > 0) out.set("seed_count", t.seed_count);
  if (t.horizon_scale != 1.0) out.set("horizon_scale", t.horizon_scale);
  if (t.max_states > 0) out.set("max_states", t.max_states);
  if (t.max_losses > 0) out.set("max_losses", t.max_losses);
  if (t.max_injections > 0) out.set("max_injections", t.max_injections);
  if (t.max_input_changes > 0) out.set("max_input_changes", t.max_input_changes);
  if (t.threads > 0) out.set("verify_threads", t.threads);
  return out;
}

scenarios::RegistryTuning tuning_from_json(const Json& j, const std::string& context) {
  JsonReader r(j, context);
  scenarios::RegistryTuning t;
  t.seed_count = r.uinteger("seed_count", t.seed_count);
  t.horizon_scale = r.number("horizon_scale", t.horizon_scale);
  if (t.horizon_scale <= 0.0)
    r.fail("horizon_scale", util::cat("must be positive, got ", t.horizon_scale));
  t.max_states = r.uinteger("max_states", t.max_states);
  t.max_losses = r.uinteger("max_losses", t.max_losses);
  t.max_injections = r.uinteger("max_injections", t.max_injections);
  t.max_input_changes = r.uinteger("max_input_changes", t.max_input_changes);
  t.threads = r.uinteger("verify_threads", t.threads);
  r.finish();
  return t;
}

}  // namespace

Json CacheCounters::to_json() const {
  Json out = Json::object();
  out.set("hits", hits);
  out.set("misses", misses);
  return out;
}

Job Job::for_scenario(std::string registry_name) {
  Job job;
  job.scenario_ref = std::move(registry_name);
  return job;
}

Job Job::for_document(scenarios::ScenarioDocument doc) {
  Job job;
  job.scenario = std::move(doc);
  return job;
}

Job Job::from_json(const Json& j) {
  JsonReader r(j, "job");
  const std::uint64_t version =
      r.uinteger("version", static_cast<std::uint64_t>(kApiVersion));
  if (version != static_cast<std::uint64_t>(kApiVersion))
    r.fail("version",
           util::cat("unsupported API version ", version, " (service is ", kApiVersion, ")"));

  Job job;
  if (const Json* scenario = r.optional("scenario")) {
    if (scenario->is_string()) {
      job.scenario_ref = scenario->as_string();
    } else {
      job.scenario = scenarios::document_from_json(*scenario);
    }
  } else {
    r.fail("scenario", "required: a registry name or an inline scenario document");
  }
  const std::string mode = r.string("mode", "");
  if (!mode.empty()) {
    job.mode = scenarios::run_mode_from_str(mode);
    if (!job.mode.has_value())
      r.fail("mode", util::cat("unknown mode \"", mode, "\" (monte-carlo, verify, both)"));
  }
  job.smoke = r.boolean("smoke", job.smoke);
  if (const Json* tuning = r.optional("tuning"))
    job.tuning = tuning_from_json(*tuning, "job.tuning");
  if (const Json* seed = r.optional("seed_base")) job.seed_base = seed->as_uint();
  job.threads = r.uinteger("threads", job.threads);
  if (const Json* intensity = r.optional("attacker_intensity")) {
    const double value = intensity->as_double();
    if (value < 0.0 || value > 1.0)
      r.fail("attacker_intensity", util::cat("out of [0,1]: ", value));
    job.attacker_intensity = value;
  }
  job.cross_validate = r.boolean("cross_validate", job.cross_validate);
  const std::string expected = r.string("expected", "");
  if (!expected.empty()) {
    job.expected = scenarios::verify_status_from_str(expected);
    if (!job.expected.has_value())
      r.fail("expected", util::cat("unknown verdict \"", expected,
                                   "\" (proved, violation, out-of-budget)"));
  }
  r.finish();
  return job;
}

Json Job::to_json() const {
  Json out = Json::object();
  out.set("version", kApiVersion);
  if (scenario.has_value()) {
    out.set("scenario", scenarios::to_json(*scenario));
  } else {
    out.set("scenario", scenario_ref);
  }
  if (mode.has_value()) out.set("mode", scenarios::run_mode_str(*mode));
  if (smoke) out.set("smoke", true);
  Json tuning_json = tuning_to_json(tuning);
  if (!tuning_json.as_object().empty()) out.set("tuning", std::move(tuning_json));
  if (seed_base.has_value()) out.set("seed_base", *seed_base);
  if (threads > 0) out.set("threads", threads);
  if (attacker_intensity.has_value()) out.set("attacker_intensity", *attacker_intensity);
  if (!cross_validate) out.set("cross_validate", false);
  if (expected.has_value()) out.set("expected", verify::verify_status_str(*expected));
  return out;
}

Json JobResult::to_json() const {
  Json out = Json::object();
  out.set("version", kApiVersion);
  out.set("ok", ok);
  out.set("scenario", scenario);
  out.set("verdict", verdict);
  // Like the cache counters: only when set, so cached entries (which
  // store 0) and pre-timing JSON render byte-identically.
  if (wall_ms > 0.0) out.set("wall_ms", wall_ms);
  if (expected.has_value()) {
    out.set("expected", verify::verify_status_str(*expected));
    out.set("expected_match", expected_match);
  }
  if (crossval.has_value()) {
    Json checks = Json::array();
    for (const scenarios::CrossCheck& c : crossval->checks) {
      Json one = Json::object();
      one.set("scenario", c.scenario);
      one.set("status", verify::verify_status_str(c.status));
      one.set("violating_runs", c.violating_runs);
      one.set("sampled_violations", c.sampled_violations);
      one.set("consistent", c.consistent);
      one.set("detail", c.detail);
      checks.push_back(std::move(one));
    }
    out.set("cross_validation", std::move(checks));
  }
  if (report.has_value()) out.set("campaign", report->to_json());
  if (cache.enabled) out.set("cache", cache.to_json());
  Json error_list = Json::array();
  for (const std::string& e : errors) error_list.push_back(e);
  out.set("errors", std::move(error_list));
  return out;
}

JobResult JobResult::from_json(const Json& j) {
  JsonReader r(j, "job-result");
  const std::uint64_t version =
      r.uinteger("version", static_cast<std::uint64_t>(kApiVersion));
  if (version != static_cast<std::uint64_t>(kApiVersion))
    r.fail("version", util::cat("unsupported API version ", version));
  JobResult result;
  result.ok = r.boolean("ok", false);
  result.scenario = r.string("scenario", "");
  result.verdict = r.string("verdict", "");
  result.wall_ms = r.number("wall_ms", 0.0);
  // to_json folds proof_status into the verdict string; recover it.
  for (const verify::VerifyStatus s :
       {verify::VerifyStatus::kProved, verify::VerifyStatus::kViolation,
        verify::VerifyStatus::kOutOfBudget}) {
    if (result.verdict == verify::verify_status_str(s)) result.proof_status = s;
  }
  const std::string expected = r.string("expected", "");
  if (!expected.empty()) {
    result.expected = scenarios::verify_status_from_str(expected);
    if (!result.expected.has_value())
      r.fail("expected", util::cat("unknown verdict \"", expected, "\""));
  }
  result.expected_match = r.boolean("expected_match", true);
  if (const Json* checks = r.optional("cross_validation")) {
    scenarios::CrossValidationReport xval;
    for (const Json& one : checks->as_array()) {
      JsonReader cr(one, "job-result.cross_validation");
      scenarios::CrossCheck check;
      check.has_verification = true;
      check.scenario = cr.string("scenario", "");
      const std::string status = cr.string("status", "");
      check.status = scenarios::verify_status_from_str(status).value_or(
          verify::VerifyStatus::kOutOfBudget);
      check.violating_runs = cr.uinteger("violating_runs", 0);
      check.sampled_violations = cr.uinteger("sampled_violations", 0);
      check.consistent = cr.boolean("consistent", true);
      check.detail = cr.string("detail", "");
      cr.finish();
      xval.checks.push_back(std::move(check));
    }
    result.crossval = std::move(xval);
  }
  if (const Json* campaign = r.optional("campaign"))
    result.report = campaign::CampaignReport::from_json(*campaign);
  if (const Json* errs = r.optional("errors")) {
    for (const Json& e : errs->as_array()) result.errors.push_back(e.as_string());
  }
  // Counters describe the call that produced the entry, not this one;
  // consume and discard.
  r.optional("cache");
  r.finish();
  return result;
}

Json MatrixResult::to_json() const {
  Json out = Json::object();
  out.set("version", kApiVersion);
  out.set("ok", ok);
  Json row_list = Json::array();
  for (const MatrixRow& row : rows) {
    Json one = Json::object();
    one.set("scenario", row.scenario);
    if (row.expected.has_value())
      one.set("expected", verify::verify_status_str(*row.expected));
    if (row.status.has_value()) one.set("status", verify::verify_status_str(*row.status));
    one.set("expected_match", row.expected_match);
    one.set("consistent", row.consistent);
    if (row.wall_ms > 0.0) one.set("wall_ms", row.wall_ms);
    row_list.push_back(std::move(one));
  }
  out.set("rows", std::move(row_list));
  if (wall_ms > 0.0) out.set("wall_ms", wall_ms);
  if (deduped > 0) out.set("deduped", deduped);
  if (report.has_value()) out.set("campaign", report->to_json());
  if (cache.enabled) out.set("cache", cache.to_json());
  Json error_list = Json::array();
  for (const std::string& e : errors) error_list.push_back(e);
  out.set("errors", std::move(error_list));
  return out;
}

}  // namespace ptecps::api
