// `pte` — the one CLI of the repo: the paper's whole workflow (pick a
// deployment, prove its PTE rules under the bounded adversary, sample it
// under realistic loss) as subcommands over the job API, speaking
// scenario FILES and registry NAMES interchangeably.
//
//   pte list                 named scenarios (--json, --names)
//   pte describe <ref>       one scenario, human-readable (--json)
//   pte export <name>…       registry entry → scenario .json (--all, --dir D)
//   pte run <ref>            execute as declared (or --mode) → JobResult JSON
//   pte verify <ref>         exhaustive proof only → JobResult JSON
//   pte matrix               every scenario × both modes + cross-validation
//   pte replay <ref>         prove, then replay the counterexample end to end
//   pte fuzz                 coverage-guided scenario-space fuzzing
//
// <ref> is a registry name ("laser-tracheotomy") or a path to a scenario
// file ("deploy/icu.json") — `pte export` writes files that `pte verify`
// and `pte run` rebuild into the identical deployment.  Machine output
// (JobResult / MatrixResult JSON) goes to stdout; narration to stderr —
// `pte run laser-tracheotomy | python3 -m json.tool` round-trips.
//
// Exit codes: 0 = job ok (verdict matches any declared expectation,
// cross-validation consistent), 1 = job concluded against expectation or
// inconsistently, 2 = usage / input error.
//
// This multitool subsumed the bench_matrix, verify_demo and
// scenario_tour binaries, whose wiring it had triplicated.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/frontier.hpp"
#include "api/service.hpp"
#include "fuzz/fuzzer.hpp"
#include "scenarios/crossval.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/cli.hpp"
#include "util/sockio.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

using namespace ptecps;

namespace {

constexpr const char* kUsage =
    "usage: pte <command> [options]\n"
    "\n"
    "commands:\n"
    "  list                list the named scenarios (--json | --names)\n"
    "  describe <ref>      show one scenario (--json for the document)\n"
    "  export <name>...    write registry entries as scenario files\n"
    "                      (--all; --dir DIR, else stdout)\n"
    "  run <ref>           execute as declared or per --mode; JobResult JSON\n"
    "  verify <ref>        exhaustive proof; JobResult JSON on stdout\n"
    "  matrix              registry (or --dir of files) x both modes +\n"
    "                      cross-validation (--smoke, --json)\n"
    "  replay <ref>        prove and replay the counterexample\n"
    "  frontier [<ref>...] robustness frontier: binary-search the attacker\n"
    "                      intensity each scenario provably tolerates\n"
    "                      (whole registry when no refs; --budget K --smoke\n"
    "                      --json)\n"
    "  fuzz                coverage-guided scenario-space fuzzing: hunt\n"
    "                      prover/sampler disagreement over generated\n"
    "                      deployments (--max-execs N --batch N\n"
    "                      --seed S --time-budget SECS --corpus-dir DIR\n"
    "                      --artifact-dir DIR --max-remotes N\n"
    "                      --config-pool N --blind --no-minimize --json)\n"
    "  cache <action>      result-cache maintenance: stats, clear, gc\n"
    "\n"
    "<ref>: a registry name (`pte list`), a scenario .json file path, or\n"
    "  `-` for a scenario document on stdin (pipe from `pte export`).\n"
    "common options: --seeds N --seed-base S --threads N --verify-threads N\n"
    "  (prover threads; scenarios default to 0 = hardware concurrency)\n"
    "  --losses K --injections K --states N (budget caps) --smoke --expect V\n"
    "caching (run/verify/matrix/frontier/fuzz): --cache-dir DIR (or PTE_CACHE_DIR)\n"
    "  enables the content-addressed result cache;\n"
    "  --no-cache disables it for one invocation.\n"
    "remote (run/verify): --connect HOST:PORT sends the job to a running\n"
    "  `pted` daemon instead of executing in-process.\n";

int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(), kUsage);
  return 2;
}

/// A ref is a file when it points into the filesystem; otherwise it is a
/// registry name.  (".json" also routes to the filesystem so a missing
/// file errors as a file problem, not as an unknown registry name.)
bool looks_like_file(const std::string& ref) {
  return ref.find('/') != std::string::npos || ref.ends_with(".json") ||
         std::filesystem::exists(ref);
}

scenarios::ScenarioDocument load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open scenario file '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return scenarios::document_from_text(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

/// Registry entry by name; exits(2) with the `pte list` hint otherwise —
/// the ONE name lookup behind run/verify/describe/export/replay/matrix
/// (each used to print its own variant of this diagnostic).
const scenarios::RegistryEntry& find_entry_or_die(const std::string& name) {
  if (const scenarios::RegistryEntry* entry = scenarios::find_scenario(name))
    return *entry;
  std::fprintf(stderr, "error: no scenario named '%s' and no such file (try `pte list`)\n",
               name.c_str());
  std::exit(2);
}

/// Scenario document from stdin — `pte export X | pte verify -`.
scenarios::ScenarioDocument load_stdin() {
  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  try {
    return scenarios::document_from_text(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: <stdin>: %s\n", e.what());
    std::exit(2);
  }
}

/// Registry name, scenario file, or `-` (stdin) → document; exits(2)
/// on none of the three.
scenarios::ScenarioDocument load_ref(const std::string& ref) {
  if (ref == "-") return load_stdin();
  if (!looks_like_file(ref)) return scenarios::export_document(find_entry_or_die(ref));
  return load_file(ref);
}

/// Create DIR (recursively) for --dir / --cache-dir; prints a path
/// diagnostic and returns false when it cannot be a directory (exists
/// as a file, permission denied, ...).
bool ensure_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && std::filesystem::is_directory(dir)) return true;
  std::fprintf(stderr, "error: cannot create directory '%s': %s\n", dir.c_str(),
               ec ? ec.message().c_str() : "exists but is not a directory");
  return false;
}

/// Cache wiring shared by run/verify/matrix: --cache-dir DIR beats the
/// PTE_CACHE_DIR environment variable; neither set (or --no-cache) means
/// caching stays off.  Exits(2) when the directory cannot be created.
api::ServiceOptions service_options_from_args(const util::ArgParser& args) {
  api::ServiceOptions options;
  if (args.has_flag("no-cache")) return options;
  std::string dir = args.get_string("cache-dir", "");
  if (dir.empty()) {
    if (const char* env = std::getenv("PTE_CACHE_DIR")) dir = env;
  }
  if (dir.empty()) return options;
  if (!ensure_directory(dir)) std::exit(2);
  options.cache_dir = std::move(dir);
  return options;
}

api::Service make_service(const util::ArgParser& args) {
  try {
    return api::Service(service_options_from_args(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// The budget/seed flags shared by run/verify/matrix/replay.
scenarios::RegistryTuning tuning_from_args(const util::ArgParser& args) {
  scenarios::RegistryTuning tuning;
  tuning.seed_count = args.get_u64("seeds", 0);
  tuning.max_states = args.get_u64("states", 0);
  tuning.max_losses = args.get_u64("losses", 0);
  tuning.max_injections = args.get_u64("injections", 0);
  tuning.max_input_changes = args.get_u64("input-changes", 0);
  tuning.threads = args.get_u64("verify-threads", 0);
  return tuning;
}

api::Job job_from_args(const util::ArgParser& args, scenarios::ScenarioDocument doc) {
  api::Job job = api::Job::for_document(std::move(doc));
  job.smoke = args.has_flag("smoke");
  job.tuning = tuning_from_args(args);
  job.threads = args.get_u64("threads", 0);
  if (args.has_flag("seed-base")) job.seed_base = args.get_u64("seed-base", 1);
  const std::string expect = args.get_string("expect", "");
  if (!expect.empty()) {
    job.expected = scenarios::verify_status_from_str(expect);
    if (!job.expected.has_value())
      std::exit(usage_error(util::cat("unknown --expect verdict '", expect,
                                      "' (proved, violation, out-of-budget)")));
  }
  return job;
}

/// Execute one job on a running `pted` daemon (--connect HOST:PORT):
/// framed protocol, one request, one response.  Exits(2) on transport
/// or protocol failure; a job the daemon rejected (queue full, drain)
/// surfaces the server's error text and exits 1.
api::JobResult run_remote(const std::string& endpoint, const api::Job& job) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    std::fprintf(stderr, "error: --connect needs HOST:PORT, got '%s'\n", endpoint.c_str());
    std::exit(2);
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  try {
    util::Socket sock = util::tcp_connect(host, port);
    util::write_frame_magic(sock);
    util::Json envelope = util::Json::object();
    envelope.set("job", job.to_json());
    util::write_frame(sock, envelope.dump_canonical());
    const std::optional<std::string> reply = util::read_frame(sock);
    if (!reply.has_value())
      throw util::SockError("server closed the connection without a response");
    const util::Json resp = util::Json::parse(*reply);
    if (const util::Json* result = resp.find("result"))
      return api::JobResult::from_json(*result);
    const util::Json* error = resp.find("error");
    std::fprintf(stderr, "error: %s: %s\n", endpoint.c_str(),
                 error != nullptr ? error->as_string().c_str() : "malformed response");
    std::exit(1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", endpoint.c_str(), e.what());
    std::exit(2);
  }
}

/// In-process service, or the daemon when --connect is given.
api::JobResult execute_job(const util::ArgParser& args, const api::Job& job) {
  const std::string endpoint = args.get_string("connect", "");
  if (!endpoint.empty()) return run_remote(endpoint, job);
  return make_service(args).run(job);
}

/// JSON to stdout, one verdict line to stderr, exit code from `ok`.
int emit_result(const api::JobResult& result) {
  std::fputs(result.to_json().dump(2).c_str(), stdout);
  std::fprintf(stderr, "%s: %s%s\n", result.scenario.c_str(), result.verdict.c_str(),
               result.ok ? ""
               : result.expected.has_value() && !result.expected_match
                   ? util::cat(" (expected ",
                               verify::verify_status_str(*result.expected), ")")
                         .c_str()
                   : " (FAILED)");
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "error: %s\n", e.c_str());
  return result.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int cmd_list(const util::ArgParser& args) {
  if (args.has_flag("names")) {
    for (const auto& e : scenarios::registry()) std::printf("%s\n", e.name.c_str());
    return 0;
  }
  if (args.has_flag("json")) {
    util::Json out = util::Json::array();
    for (const auto& e : scenarios::registry()) {
      util::Json one = util::Json::object();
      one.set("name", e.name);
      one.set("summary", e.summary);
      one.set("expected", verify::verify_status_str(e.expected));
      out.push_back(std::move(one));
    }
    std::fputs(out.dump(2).c_str(), stdout);
    return 0;
  }
  std::printf("%zu named scenarios:\n", scenarios::registry().size());
  for (const auto& e : scenarios::registry())
    std::printf("  %-28s expect %-10s %s\n", e.name.c_str(),
                verify::verify_status_str(e.expected).c_str(), e.summary.c_str());
  return 0;
}

int cmd_describe(const util::ArgParser& args) {
  if (args.positional().size() != 1)
    return usage_error("describe needs exactly one <ref>");
  const scenarios::ScenarioDocument doc = load_ref(args.positional()[0]);
  if (args.has_flag("json")) {
    std::fputs(scenarios::to_json(doc).dump(2).c_str(), stdout);
    return 0;
  }
  const scenarios::ScenarioParams& p = doc.params;
  std::printf("=== %s ===\n", p.name.c_str());
  if (!doc.summary.empty()) std::printf("%s\n", doc.summary.c_str());
  for (const std::string& note : doc.notes) std::printf("  %s\n", note.c_str());
  if (doc.expected.has_value())
    std::printf("expected prover verdict: %s\n",
                verify::verify_status_str(*doc.expected).c_str());
  std::printf("\nmode: %s   horizon: %s s   seeds: %llu + %zu\n",
              scenarios::run_mode_str(p.mode).c_str(),
              util::fmt_compact(p.horizon).c_str(),
              static_cast<unsigned long long>(p.seed_base), p.seed_count);
  std::printf("topology: %s   attacker: %s\n",
              p.topology == scenarios::Topology::kStar ? "star" : "chained-bridge",
              p.attacker.describe().c_str());
  std::printf("verify budgets: %zu losses, %zu injections, %zu input changes, "
              "%zu states\n",
              p.verify.max_losses, p.verify.max_injections, p.verify.max_input_changes,
              p.verify.max_states);
  std::printf("script: period %s s, phase %s s, on for %s s, %zu explicit action(s)\n\n",
              util::fmt_compact(p.script.period).c_str(),
              util::fmt_compact(p.script.phase).c_str(),
              util::fmt_compact(p.script.on_for).c_str(), p.script.actions.size());
  std::printf("%s", p.config.describe().c_str());
  return 0;
}

int cmd_export(const util::ArgParser& args) {
  std::vector<const scenarios::RegistryEntry*> entries;
  if (args.has_flag("all")) {
    for (const auto& e : scenarios::registry()) entries.push_back(&e);
  } else {
    if (args.positional().empty())
      return usage_error("export needs scenario name(s) or --all");
    for (const std::string& name : args.positional())
      entries.push_back(&find_entry_or_die(name));
  }
  const std::string dir = args.get_string("dir", "");
  if (dir.empty() && entries.size() > 1)
    return usage_error("exporting several scenarios needs --dir DIR");
  if (!dir.empty() && !ensure_directory(dir)) return 2;
  for (const auto* entry : entries) {
    const std::string text = scenarios::to_json(scenarios::export_document(*entry)).dump(2);
    if (dir.empty()) {
      std::fputs(text.c_str(), stdout);
      continue;
    }
    const std::string path = util::cat(dir, "/", entry->name, ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 2;
    }
    out << text;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_run(const util::ArgParser& args) {
  if (args.positional().size() != 1) return usage_error("run needs exactly one <ref>");
  api::Job job = job_from_args(args, load_ref(args.positional()[0]));
  const std::string mode = args.get_string("mode", "");
  if (!mode.empty()) {
    job.mode = scenarios::run_mode_from_str(mode);
    if (!job.mode.has_value())
      return usage_error(
          util::cat("unknown --mode '", mode, "' (monte-carlo, verify, both)"));
  }
  if (args.has_flag("no-crossval")) job.cross_validate = false;
  return emit_result(execute_job(args, job));
}

int cmd_verify(const util::ArgParser& args) {
  if (args.positional().size() != 1)
    return usage_error("verify needs exactly one <ref>");
  api::Job job = job_from_args(args, load_ref(args.positional()[0]));
  job.mode = campaign::RunMode::kVerify;
  return emit_result(execute_job(args, job));
}

int cmd_matrix(const util::ArgParser& args) {
  std::vector<api::Job> jobs;
  std::vector<std::string> labels;
  const std::string dir = args.get_string("dir", "");
  const std::string only = args.get_string("scenario", "");
  if (!dir.empty()) {
    // A directory of scenario files — `pte export --all --dir D` output.
    // Entries that shadow a registry name must agree with the compiled
    // expectation: a stale export silently flipping a verdict is exactly
    // the drift the matrix exists to catch.
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) return usage_error(util::cat("no .json files under '", dir, "'"));
    for (const std::string& path : paths) {
      scenarios::ScenarioDocument doc = load_file(path);
      if (const scenarios::RegistryEntry* compiled =
              scenarios::find_scenario(doc.params.name)) {
        if (!doc.expected.has_value() || *doc.expected != compiled->expected) {
          std::fprintf(stderr,
                       "error: %s: expected verdict diverges from the compiled "
                       "registry entry '%s' — re-export it\n",
                       path.c_str(), doc.params.name.c_str());
          return 2;
        }
      }
      labels.push_back(path);
      jobs.push_back(api::Job::for_document(std::move(doc)));
    }
  } else if (!only.empty()) {
    const scenarios::RegistryEntry& entry = find_entry_or_die(only);
    labels.push_back(entry.name);
    jobs.push_back(api::Job::for_scenario(entry.name));
  } else {
    for (const auto& e : scenarios::registry()) {
      labels.push_back(e.name);
      jobs.push_back(api::Job::for_scenario(e.name));
    }
  }
  for (api::Job& job : jobs) {
    job.smoke = args.has_flag("smoke");
    job.tuning = tuning_from_args(args);
    job.threads = args.get_u64("threads", 0);
  }

  const api::MatrixResult result = make_service(args).run_matrix(jobs);
  if (args.has_flag("json")) {
    std::fputs(result.to_json().dump(2).c_str(), stdout);
    for (const std::string& e : result.errors)
      std::fprintf(stderr, "error: %s\n", e.c_str());
    return result.ok ? 0 : 1;
  }

  util::TextTable table(
      {"scenario", "runs", "sampled viol", "verify", "states", "verify s", "replay",
       "expected", "agree"});
  for (std::size_t c = 1; c <= 6; ++c) table.set_right_align(c);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const api::MatrixRow& row = result.rows[i];
    const campaign::ScenarioOutcome& outcome = result.report->scenarios[i];
    if (!outcome.verification.has_value()) {
      table.add_row({row.scenario, util::cat(outcome.runs.size()),
                     util::cat(outcome.total_violations), "-", "-", "-", "-",
                     row.expected.has_value() ? verify::verify_status_str(*row.expected)
                                              : "-",
                     row.expected_match ? "yes" : "NO"});
      continue;
    }
    const campaign::VerificationOutcome& v = *outcome.verification;
    table.add_row(
        {row.scenario, util::cat(outcome.runs.size()), util::cat(outcome.total_violations),
         verify::verify_status_str(v.status), util::cat(v.states_explored),
         util::fmt_double(v.wall_seconds, 2),
         v.replay_attempted ? (v.replay_reproduced ? "yes" : "NO") : "-",
         row.expected.has_value() ? verify::verify_status_str(*row.expected) : "-",
         row.consistent && row.expected_match ? "yes" : "NO"});
  }
  std::printf("=== scenario matrix: %zu scenario(s), Monte-Carlo + exhaustive proof ===\n\n",
              jobs.size());
  std::printf("%s\n", table.render().c_str());
  if (result.crossval.has_value()) std::printf("%s\n", result.crossval->summary().c_str());
  if (result.report.has_value()) std::printf("%s\n", result.report->summary().c_str());
  for (const std::string& e : result.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  if (result.report.has_value())
    for (const std::string& e : result.report->errors)
      std::fprintf(stderr, "error: %s\n", e.c_str());
  std::printf("\nSCENARIO MATRIX %s\n", result.ok ? "PASSED" : "FAILED");
  return result.ok ? 0 : 1;
}

int cmd_replay(const util::ArgParser& args) {
  if (args.positional().size() != 1)
    return usage_error("replay needs exactly one <ref>");
  api::Job job = job_from_args(args, load_ref(args.positional()[0]));
  job.mode = campaign::RunMode::kVerify;
  job.expected.reset();  // we judge on the replay, not on a declared verdict
  const api::JobResult result = api::Service().run(job);
  for (const std::string& e : result.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  if (!result.report.has_value()) return 1;
  const auto& verification = result.report->scenarios[0].verification;
  if (!verification.has_value() || !verification->counterexample.has_value()) {
    std::printf("%s: %s — no counterexample to replay\n", result.scenario.c_str(),
                result.verdict.c_str());
    return 1;
  }
  std::printf("%s\n", verification->counterexample->str().c_str());
  std::printf("replayed through hybrid::Engine + PteMonitor: %s\n",
              verification->replay_reproduced ? "violation reproduced" : "NOT reproduced");
  if (!verification->replay_detail.empty())
    std::printf("%s\n", verification->replay_detail.c_str());
  return verification->replay_reproduced ? 0 : 1;
}

int cmd_fuzz(const util::ArgParser& args) {
  fuzz::FuzzOptions options;
  options.seed = args.get_u64("seed", 1);
  options.max_execs = args.get_u64("max-execs", 256);
  options.time_budget_s = args.get_double("time-budget", 0.0);
  options.batch = args.get_u64("batch", 16);
  options.guided = !args.has_flag("blind");
  options.corpus_dir = args.get_string("corpus-dir", "");
  options.artifact_dir = args.get_string("artifact-dir", "");
  options.minimize = !args.has_flag("no-minimize");
  options.threads = args.get_u64("threads", 0);
  options.grammar.max_remotes = args.get_u64("max-remotes", options.grammar.max_remotes);
  options.grammar.config_pool = args.get_u64("config-pool", options.grammar.config_pool);
  if (options.max_execs == 0) return usage_error("--max-execs must be positive");
  if (options.batch == 0) return usage_error("--batch must be positive");
  if (options.grammar.max_remotes < 2)
    return usage_error("--max-remotes must be >= 2 (the PTE pattern is pairwise)");
  if (options.grammar.config_pool == 0)
    return usage_error("--config-pool must be positive");
  if (!options.corpus_dir.empty() && !ensure_directory(options.corpus_dir)) return 2;
  if (!options.artifact_dir.empty() && !ensure_directory(options.artifact_dir)) return 2;

  // Through the service, not the raw CampaignRunner: every execution
  // gets the result cache, content dedup, and JobResult semantics —
  // the same path `pte run` and the daemon use.
  const fuzz::FuzzReport report = fuzz::Fuzzer(make_service(args), options).run();

  if (args.has_flag("json")) {
    std::fputs(report.to_json().dump(2).c_str(), stdout);
  } else {
    const fuzz::FuzzStats& s = report.stats;
    std::printf("=== scenario-space fuzzing: %zu execution(s), %s mode, seed %llu ===\n",
                s.execs, options.guided ? "guided" : "blind",
                static_cast<unsigned long long>(options.seed));
    std::printf("coverage: %llu fingerprint bits, %zu distinct sketches, "
                "%zu verdict-flip region(s), %zu near-miss(es)\n",
                static_cast<unsigned long long>(s.coverage_bits), s.distinct_sketches,
                s.flip_regions, s.near_misses);
    std::printf("verdicts: %zu proved, %zu violated, %zu out-of-budget, %zu error(s)\n",
                s.proved, s.violated, s.out_of_budget, s.row_errors);
    std::printf("corpus: %zu entr(ies), %zu dedup-skipped candidate(s)",
                s.corpus_size, s.dedup_skipped);
    if (s.matrix_deduped > 0) std::printf(", %zu matrix-deduped", s.matrix_deduped);
    std::printf("\n");
    if (s.cache.enabled)
      std::printf("cache: %zu hit(s), %zu miss(es)\n", s.cache.hits, s.cache.misses);
    std::printf("wall: %.2f s (%.1f exec/s)\n", s.wall_s, s.execs_per_s);
  }
  for (const std::string& e : report.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  for (const fuzz::FuzzFinding& f : report.findings) {
    std::fprintf(stderr, "finding [%s] %s: %s (%zu-line reproducer%s)\n",
                 f.kind == fuzz::FuzzFinding::Kind::kDisagreement ? "disagreement"
                                                                  : "error",
                 f.digest.substr(0, 16).c_str(), f.description.c_str(), f.doc_lines,
                 f.minimized ? ", minimized" : "");
    if (!options.artifact_dir.empty())
      std::fprintf(stderr, "reproduce: pte matrix --dir %s  (or pte run %s/%s.json)\n",
                   options.artifact_dir.c_str(), options.artifact_dir.c_str(),
                   f.digest.substr(0, 16).c_str());
  }
  if (!report.findings.empty()) {
    // Environment-complete reproduction line: every knob that shaped the
    // candidate stream, spelled with its actual (u64-safe) values.
    std::fprintf(stderr,
                 "reproduce campaign: pte fuzz --seed %llu --max-execs %llu "
                 "--batch %llu --max-remotes %llu --config-pool %llu "
                 "--threads %llu%s%s%s%s\n",
                 static_cast<unsigned long long>(options.seed),
                 static_cast<unsigned long long>(options.max_execs),
                 static_cast<unsigned long long>(options.batch),
                 static_cast<unsigned long long>(options.grammar.max_remotes),
                 static_cast<unsigned long long>(options.grammar.config_pool),
                 static_cast<unsigned long long>(options.threads),
                 options.guided ? "" : " --blind",
                 options.minimize ? "" : " --no-minimize",
                 options.corpus_dir.empty()
                     ? ""
                     : util::cat(" --corpus-dir ", options.corpus_dir).c_str(),
                 options.artifact_dir.empty()
                     ? ""
                     : util::cat(" --artifact-dir ", options.artifact_dir).c_str());
  }
  if (!args.has_flag("json"))
    std::printf("\nFUZZ %s (%zu finding(s))\n", report.ok() ? "PASSED" : "FAILED",
                report.findings.size());
  return report.ok() ? 0 : 1;
}

int cmd_frontier(const util::ArgParser& args) {
  std::vector<api::Job> jobs;
  if (args.positional().empty()) {
    for (const auto& e : scenarios::registry())
      jobs.push_back(api::Job::for_scenario(e.name));
  } else {
    for (const std::string& ref : args.positional())
      jobs.push_back(api::Job::for_document(load_ref(ref)));
  }
  for (api::Job& job : jobs) {
    job.smoke = args.has_flag("smoke");
    job.tuning = tuning_from_args(args);
    job.threads = args.get_u64("threads", 0);
  }
  api::FrontierOptions options;
  options.default_budget = args.get_u64("budget", options.default_budget);
  if (options.default_budget == 0) return usage_error("--budget must be positive");

  const api::FrontierReport report =
      api::compute_frontier(make_service(args), jobs, options);
  if (args.has_flag("json")) {
    std::fputs(report.to_json().dump(2).c_str(), stdout);
    for (const api::FrontierResult& r : report.results)
      for (const std::string& e : r.errors)
        std::fprintf(stderr, "error: %s: %s\n", r.scenario.c_str(), e.c_str());
    for (const std::string& e : report.errors)
      std::fprintf(stderr, "error: %s\n", e.c_str());
    return report.ok ? 0 : 1;
  }

  util::TextTable table(
      {"scenario", "budget", "safe", "critical", "margin", "replay", "probes"});
  for (std::size_t c = 1; c <= 4; ++c) table.set_right_align(c);
  for (const api::FrontierResult& r : report.results) {
    std::string probes;
    for (const api::FrontierProbe& p : r.probes) {
      if (!probes.empty()) probes += " ";
      probes += util::cat(p.losses, ":",
                          p.status == verify::VerifyStatus::kProved ? "proved"
                          : p.status == verify::VerifyStatus::kViolation
                              ? "violated"
                              : "out-of-budget");
    }
    table.add_row(
        {r.scenario, util::cat(r.budget),
         r.safe_losses.has_value() ? util::cat(*r.safe_losses) : "-",
         r.critical_losses.has_value() ? util::cat(*r.critical_losses) : "-",
         r.ok ? util::fmt_double(r.margin, 2) : "ERROR",
         r.critical_losses.has_value() ? (r.counterexample_replayed ? "yes" : "NO") : "-",
         probes});
  }
  std::printf("=== robustness frontier: %zu scenario(s), attacker-intensity "
              "binary search ===\n\n%s\n",
              jobs.size(), table.render().c_str());
  std::printf("safe/critical are attacker losses; margin = safe/budget — the\n"
              "proof holds at every intensity <= margin, and the critical probe's\n"
              "counterexample replays through the engine above it.\n");
  for (const api::FrontierResult& r : report.results)
    for (const std::string& e : r.errors)
      std::fprintf(stderr, "error: %s: %s\n", r.scenario.c_str(), e.c_str());
  for (const std::string& e : report.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  if (report.cache.enabled)
    std::printf("\ncache: %zu hit(s), %zu miss(es)\n", report.cache.hits,
                report.cache.misses);
  std::printf("\nFRONTIER %s\n", report.ok ? "PASSED" : "FAILED");
  return report.ok ? 0 : 1;
}

int cmd_cache(const util::ArgParser& args) {
  if (args.positional().size() != 1)
    return usage_error("cache needs exactly one action: stats, clear, or gc");
  const std::string action = args.positional()[0];
  std::string dir = args.get_string("cache-dir", "");
  if (dir.empty()) {
    if (const char* env = std::getenv("PTE_CACHE_DIR")) dir = env;
  }
  if (dir.empty())
    return usage_error("cache needs --cache-dir DIR (or PTE_CACHE_DIR set)");
  if (!ensure_directory(dir)) return 2;

  api::ResultCache::Options options;
  options.dir = dir;
  options.max_bytes =
      args.get_u64("max-bytes", api::ResultCache::kDefaultMaxBytes);
  try {
    const api::ResultCache cache(options);
    if (action == "stats") {
      const api::CacheStats stats = cache.stats();
      if (args.has_flag("json")) {
        std::fputs(stats.to_json().dump(2).c_str(), stdout);
        return 0;
      }
      std::printf("cache %s: %zu result(s), %llu / %llu bytes\n", stats.dir.c_str(),
                  stats.results,
                  static_cast<unsigned long long>(stats.bytes),
                  static_cast<unsigned long long>(stats.max_bytes));
      return 0;
    }
    if (action == "clear") {
      std::printf("removed %zu file(s) from %s\n", cache.clear(), cache.dir().c_str());
      return 0;
    }
    if (action == "gc") {
      std::printf("evicted %zu file(s) from %s\n", cache.gc(), cache.dir().c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage_error(util::cat("unknown cache action '", action,
                               "' (stats, clear, gc)"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string command = argv[1];
  // Each subcommand parses its own flags (argv[1] becomes the "program").
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "list")
    return cmd_list({sub_argc, sub_argv, {"json", "names"}});
  if (command == "describe")
    return cmd_describe({sub_argc, sub_argv, {"json"}});
  if (command == "export")
    return cmd_export({sub_argc, sub_argv, {"all", "dir"}});
  if (command == "run")
    return cmd_run({sub_argc, sub_argv,
                    {"seeds", "seed-base", "threads", "verify-threads", "losses",
                     "injections", "input-changes", "states", "smoke", "mode", "expect",
                     "no-crossval", "cache-dir", "no-cache", "connect"}});
  if (command == "verify")
    return cmd_verify({sub_argc, sub_argv,
                       {"seeds", "seed-base", "threads", "verify-threads", "losses",
                        "injections", "input-changes", "states", "smoke", "expect",
                        "cache-dir", "no-cache", "connect"}});
  if (command == "matrix")
    return cmd_matrix({sub_argc, sub_argv,
                       {"smoke", "scenario", "dir", "seeds", "threads",
                        "verify-threads", "losses", "injections", "input-changes",
                        "states", "json", "cache-dir", "no-cache"}});
  if (command == "frontier")
    return cmd_frontier({sub_argc, sub_argv,
                         {"budget", "smoke", "seeds", "seed-base", "threads",
                          "verify-threads", "losses", "injections", "input-changes",
                          "states", "json", "cache-dir", "no-cache"}});
  if (command == "cache")
    return cmd_cache({sub_argc, sub_argv, {"cache-dir", "max-bytes", "json"}});
  if (command == "replay")
    return cmd_replay({sub_argc, sub_argv,
                       {"seeds", "seed-base", "threads", "verify-threads", "losses",
                        "injections", "input-changes", "states", "smoke"}});
  if (command == "fuzz")
    return cmd_fuzz({sub_argc, sub_argv,
                     {"seed", "max-execs", "time-budget", "batch", "blind",
                      "corpus-dir", "artifact-dir", "no-minimize", "max-remotes",
                      "config-pool", "threads", "json", "cache-dir", "no-cache"}});
  if (command == "--help" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  return usage_error(util::cat("unknown command '", command, "'"));
}
