// perfbench: the harness behind every speed claim about ptecps — proving,
// sampling and serving — with a per-layer breakdown of where a job's time
// goes.  perfbench/run.py builds it and passes its arguments on.
//
// Every workload is one client sending api::Job requests, closed loop (the
// next request leaves when the previous answer arrives), over the framed
// PTEJ protocol to an in-process service::Server — a real pted minus the
// process — with one worker and a result cache.  Jobs carry the scenario
// documents of perfbench/scenarios/ inline and run them in their declared
// both-modes form (Monte-Carlo sampling + exhaustive proof +
// cross-validation), so every layer is on the path of every workload; the
// workloads differ in which layer dominates:
//
//   prove   declared proof budgets and seed counts; every job carries a
//           fresh seed_base, so every job misses the cache.
//   sample  512 Monte-Carlo seeds over the full horizon, the CI smoke proof
//           budgets; fresh keys.
//   serve   smoke budgets; in every block of four requests one, at a
//           random place, is fresh (miss) and three repeat a key primed
//           at set-up (cache hit).
//
// --seed fixes every input: the document order of each pass over the
// documents, the seed_base of every job (which picks the Monte-Carlo
// draws), and for serve the place of the miss in each block.  Every answer is checked: ok, the verdict
// the document declares, a reproduced replay for violations that ask for
// one, and proof counts identical for every answer about one document.
//
// Timing on a shared host.  The process runs pinned to one CPU, and every
// timing is scaled by how fast that CPU is at the moment: a fixed
// calibration kernel (harness code, so no change to the repository can
// move it) runs between requests at least every 25 ms, and an interval
// measured as t ms is reported as t * (kKernelReferenceMs / k)^1.5, k being
// the mean kernel ms just before and just after it.  On hosts whose cores
// run up to 2x slower while a neighbour is busy, this cuts the run-to-run
// spread several-fold.
//
// --trace 0 reports what the client sees: the geometric and arithmetic
// mean job latency, and the median of several set-ups.  --trace 1 runs the
// same jobs, then replays them one at a time through the calls
// Service::run is made of — parse, build, cache, compile, explore (which
// includes concretization), replay, Monte-Carlo, cross-validation, JSON —
// timing each call, and reports each layer's mean busy time per job, the
// time a job spent outside Service::run (socket, wire JSON, admission
// queue), and work counts.
//
// Usage: perfbench --workload prove|sample|serve --seed N --seconds S
//                  --trace 0|1 --docs DIR --work-dir DIR
// The last line of stdout is the result object; narration goes to stderr.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "api/cache.hpp"
#include "api/job.hpp"
#include "api/service.hpp"
#include "campaign/runner.hpp"
#include "scenarios/builder.hpp"
#include "scenarios/crossval.hpp"
#include "scenarios/serialize.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/sockio.hpp"
#include "verify/checker.hpp"
#include "verify/model.hpp"
#include "verify/replay.hpp"

namespace fs = std::filesystem;
using namespace ptecps;

namespace {

using steady_clock = std::chrono::steady_clock;

double ms_since(steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() - t0).count();
}

/// Run `f`, adding its wall time to `acc_ms`; returns what `f` returns.
template <typename F>
auto timed(double& acc_ms, F&& f) {
  const auto t0 = steady_clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc_ms += ms_since(t0);
  } else {
    auto result = f();
    acc_ms += ms_since(t0);
    return result;
  }
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// splitmix64: a tiny deterministic generator, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// --- the speed of the CPU right now ------------------------------------------------

/// The calibration kernel's time on an uncontended core of the reference
/// host (4-vCPU Intel Xeon VM); it only sets the scale of reported ms.
constexpr double kKernelReferenceMs = 0.85;
/// The served path slows down more than the kernel when a neighbour is
/// busy: roughly as the kernel's slowdown to this power.  Fitted on the
/// reference host, where 1.5 gave every workload its smallest or
/// near-smallest run-to-run spread (1.0 left prove and sample at ~0.12).
constexpr double kContentionExponent = 1.5;
/// A request starts with a kernel run when this long has passed since
/// the last one — short against the phases, hundreds of ms and longer,
/// in which a shared core runs slow.
constexpr double kCalibrationEveryMs = 25.0;
/// Longest a traced run spends replaying jobs through the layers.
constexpr double kTraceBudgetMs = 10'000.0;

/// Keeps the kernel's results observable, so the optimizer cannot drop them.
volatile std::uint64_t g_kernel_sink = 0;

/// A fixed amount of work in four parts of similar length, each standing
/// for one kind of work the served path does, since a busy neighbour
/// slows each kind by a different factor: a min-plus closure over a 24x24
/// int64 matrix with open-addressing inserts (the prover's inner loops),
/// small allocations and a std::map (the simulator and JSON trees), file
/// open/read/close (the result cache), and a pointer chase through 4 MiB
/// (working sets beyond L2).  `probe` is a small file to read.
class Kernel {
 public:
  explicit Kernel(std::string probe) : probe_(std::move(probe)), chase_(kChase) {
    std::ofstream(probe_) << "calibration probe\n";
    Rng rng(17);
    for (std::size_t i = 0; i < kChase; ++i) chase_[i] = i;
    for (std::size_t i = kChase; i > 1; --i) std::swap(chase_[i - 1], chase_[rng.below(i)]);
    run_ms();  // first touch of every buffer
  }

  double run_ms() {
    const auto t0 = steady_clock::now();
    Rng rng(0x243f6a8885a308d3ull);
    std::uint64_t acc = 0;

    for (std::int64_t& v : dbm_) v = static_cast<std::int64_t>(rng.next() >> 40);
    for (std::size_t k = 0; k < kDim; ++k)
      for (std::size_t i = 0; i < kDim; ++i)
        for (std::size_t j = 0; j < kDim; ++j)
          dbm_[i * kDim + j] =
              std::min(dbm_[i * kDim + j], dbm_[i * kDim + k] + dbm_[k * kDim + j]);
    std::fill(table_.begin(), table_.end(), 0);
    for (std::size_t n = 0; n < kSlots / 2; ++n) {
      const std::uint64_t key = rng.next() | 1;
      std::size_t slot = key & (kSlots - 1);
      while (table_[slot] != 0) slot = (slot + 1) & (kSlots - 1);
      table_[slot] = key;
    }
    acc += static_cast<std::uint64_t>(dbm_[kDim + 1]) ^ table_[kSlots / 3];

    {
      std::vector<std::unique_ptr<std::string>> strings;
      std::map<std::uint64_t, std::size_t> index;
      for (std::size_t i = 0; i < 700; ++i) {
        strings.push_back(std::make_unique<std::string>(16 + rng.below(240), 'x'));
        index.emplace(rng.next(), i);
      }
      for (std::size_t i = 0; i < 700; ++i) {
        const auto it = index.lower_bound(rng.next());
        if (it != index.end()) acc += strings[it->second]->size();
      }
    }

    char buf[256];
    for (int i = 0; i < 200; ++i) {
      std::ifstream in(probe_, std::ios::binary);
      in.read(buf, sizeof buf);
      acc += static_cast<std::uint64_t>(in.gcount());
    }

    std::size_t at = 0;
    for (int i = 0; i < 2500; ++i) at = chase_[at];
    acc += at;

    g_kernel_sink = acc;
    return ms_since(t0);
  }

 private:
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kSlots = std::size_t{1} << 13;
  static constexpr std::size_t kChase = std::size_t{1} << 19;
  std::string probe_;
  std::vector<std::int64_t> dbm_ = std::vector<std::int64_t>(kDim * kDim);
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(kSlots);
  std::vector<std::size_t> chase_;
};

/// Kernel runs in time order; a measured interval is scaled by the mean
/// of the last run before it and the first run after it.
class Calibration {
 public:
  explicit Calibration(const fs::path& dir) : kernel_((dir / "probe").string()) {}

  /// Run the kernel when due (always when `force`); returns the index of
  /// the latest run — the "before" of an interval starting now.
  std::size_t tick(bool force = false) {
    if (force || runs_.empty() || ms_since(last_) >= kCalibrationEveryMs) {
      runs_.push_back(kernel_.run_ms());
      last_ = steady_clock::now();
    }
    return runs_.size() - 1;
  }
  /// `raw_ms` measured after run `before` and before run `after`.
  double scale(double raw_ms, std::size_t before, std::size_t after) const {
    const double speed = kKernelReferenceMs / (0.5 * (runs_[before] + runs_[after]));
    return raw_ms * std::pow(speed, kContentionExponent);
  }
  double median_kernel_ms() const {
    std::vector<double> v = runs_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  }

 private:
  Kernel kernel_;
  std::vector<double> runs_;
  steady_clock::time_point last_;
};

/// Pin the process (every thread it creates later inherits the mask) to
/// the highest-numbered CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

// --- inputs ----------------------------------------------------------------------

struct Doc {
  std::string file;
  scenarios::ScenarioDocument doc;
};

std::vector<Doc> load_docs(const fs::path& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  if (ec || files.empty()) die("no scenario documents under " + dir.string());
  std::sort(files.begin(), files.end());
  std::vector<Doc> docs;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Doc d{path.filename().string(), scenarios::document_from_text(text.str())};
    if (!d.doc.expected.has_value()) die(d.file + " declares no expected verdict");
    docs.push_back(std::move(d));
  }
  return docs;
}

struct Workload {
  std::string name;
  /// Budget profile of every job (api::Job::smoke + tuning).
  bool smoke = false;
  std::size_t seed_count = 0;  // 0 = the document's own
  double horizon_scale = 1.0;
  /// Requests that repeat a key primed at set-up, per fresh-key request.
  std::size_t hits_per_miss = 0;
  /// Set-ups measured per run (setup_s is their median).
  std::size_t setup_reps = 9;
};

Workload workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "prove") return w;
  if (name == "sample") {
    w.smoke = true;
    w.seed_count = 512;
    w.horizon_scale = 2.0;  // undoes the smoke profile's half horizon
    return w;
  }
  if (name == "serve") {
    w.smoke = true;
    w.hits_per_miss = 3;
    w.setup_reps = 5;  // each one fills the cache
    return w;
  }
  die("unknown --workload '" + name + "' (prove|sample|serve)");
}

// seed_base values: primed keys live below 2^40, fresh ones above, so a
// fresh job can never hit a primed entry.
constexpr std::uint64_t kFreshBase = 1ull << 40;

std::uint64_t primed_seed_base(std::uint64_t seed) {
  return 1 + Rng(seed ^ 0x5eedba5eull).next() % (kFreshBase - 1);
}

struct Pick {
  std::size_t doc = 0;
  std::uint64_t seed_base = 0;
  bool primed = false;
};

/// Endless passes over every document, each pass in a fresh shuffled
/// order, so any stretch of a run holds nearly the same mix.
class Passes {
 public:
  explicit Passes(std::size_t docs) {
    for (std::size_t i = 0; i < docs; ++i) order_.push_back(i);
    cursor_ = order_.size();
  }
  std::size_t next(Rng& rng) {
    if (cursor_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i) std::swap(order_[i - 1], order_[rng.below(i)]);
      cursor_ = 0;
    }
    return order_[cursor_++];
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

/// The seeded job sequence: blocks of hits_per_miss + 1 requests with the
/// one fresh-key request at a random place in its block; documents come
/// from separate passes for primed and fresh requests.
class JobStream {
 public:
  JobStream(const Workload& w, std::size_t docs, std::uint64_t seed)
      : block_(w.hits_per_miss + 1), rng_(seed * 0x100000001b3ull + 1),
        primed_base_(primed_seed_base(seed)), primed_docs_(docs), fresh_docs_(docs) {}

  Pick next() {
    if (pos_ == 0) miss_at_ = rng_.below(block_);
    Pick p;
    p.primed = pos_ != miss_at_;
    pos_ = (pos_ + 1) % block_;
    p.doc = (p.primed ? primed_docs_ : fresh_docs_).next(rng_);
    p.seed_base = p.primed ? primed_base_ : kFreshBase + rng_.next() % kFreshBase;
    return p;
  }

 private:
  std::size_t block_;
  Rng rng_;
  std::uint64_t primed_base_;
  Passes primed_docs_, fresh_docs_;
  std::size_t pos_ = 0, miss_at_ = 0;
};

/// The request the client sends: an envelope around the job, rendered the
/// way bench_service and `pte --connect` render it.
std::string request_text(const Workload& w, const Doc& d, std::uint64_t seed_base) {
  api::Job job = api::Job::for_document(d.doc);
  job.smoke = w.smoke;
  job.tuning.seed_count = w.seed_count;
  job.tuning.horizon_scale = w.horizon_scale;
  // The daemon's own policy (one prover thread, one sampler thread per
  // job), pinned in the request so the traced replay runs the same work.
  job.tuning.threads = 1;
  job.threads = 1;
  job.seed_base = seed_base;
  util::Json envelope = util::Json::object();
  envelope.set("job", job.to_json());
  return envelope.dump_canonical();
}

// --- answers and their checks ------------------------------------------------

/// The deterministic part of a proof: equal for one document and budget
/// profile whatever the seed_base or cache state.
struct ProofCounts {
  verify::VerifyStatus status = verify::VerifyStatus::kOutOfBudget;
  std::size_t explored = 0, stored = 0, transitions = 0;
  bool operator==(const ProofCounts&) const = default;
};

struct Sample {
  Pick pick;
  double latency_ms = 0.0;  // raw client round trip
  double exec_ms = 0.0;     // raw Service::run wall inside the worker
  std::size_t cal_before = 0;
  std::size_t cal_after = 0;
  bool hit = false;
  bool ok = false;
  ProofCounts counts;
};

/// Judge one response; returns "" when correct, else what was wrong.
std::string check_answer(const Doc& d, const util::Json& resp, Sample& s) {
  if (!resp.at("ok").as_bool()) {
    const util::Json* err = resp.find("error");
    return err != nullptr ? err->as_string() : "job answered ok=false";
  }
  const api::JobResult r = api::JobResult::from_json(resp.at("result"));
  s.exec_ms = r.wall_ms;
  // JobResult::from_json reads the stored form, which has no "cache" block.
  const util::Json* cache = resp.at("result").find("cache");
  s.hit = cache != nullptr && cache->at("hits").as_uint() > 0;
  if (!r.report.has_value() || r.report->scenarios.size() != 1 ||
      !r.report->scenarios[0].verification.has_value())
    return "no verification in the answer";
  const campaign::VerificationOutcome& v = *r.report->scenarios[0].verification;
  s.counts = {v.status, v.states_explored, v.states_stored, v.transitions};
  if (!r.proof_status.has_value() || *r.proof_status != *d.doc.expected)
    return "verdict " + r.verdict + ", document expects " +
           verify::verify_status_str(*d.doc.expected);
  if (v.status == verify::VerifyStatus::kViolation && d.doc.params.verify.replay &&
      !v.replay_reproduced)
    return "counterexample did not replay: " + v.replay_detail;
  if (!r.crossval.has_value() || !r.crossval->ok()) return "cross-validation failed";
  return "";
}

// --- one live server -----------------------------------------------------------

struct Rig {
  fs::path dir;
  std::vector<Doc> docs;
  std::unique_ptr<service::Server> server;
  util::Socket sock;

  ~Rig() {
    sock.close();
    if (server) server->drain();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

util::Json roundtrip(util::Socket& sock, const std::string& request) {
  util::write_frame(sock, request);
  const std::optional<std::string> reply = util::read_frame(sock);
  if (!reply.has_value()) throw util::SockError("server hung up without an answer");
  return util::Json::parse(*reply);
}

/// Everything a run does before its clock starts: read the documents,
/// start the server on a fresh cache, connect, and send the first jobs —
/// for serve one per document at the primed seed_base (the cache fill),
/// otherwise one warm-up job.
std::unique_ptr<Rig> set_up(const Workload& w, const fs::path& docs_dir, const fs::path& dir,
                            std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  rig->docs = load_docs(docs_dir);

  service::ServerOptions opt;
  opt.workers = 1;
  opt.service.cache_dir = (dir / "cache").string();
  rig->server = std::make_unique<service::Server>(opt);
  rig->server->start();
  rig->sock = util::tcp_connect("127.0.0.1", rig->server->port());
  util::write_frame_magic(rig->sock);

  std::vector<std::size_t> first = {0};
  if (w.hits_per_miss > 0) {
    first.clear();
    for (std::size_t i = 0; i < rig->docs.size(); ++i) first.push_back(i);
  }
  for (const std::size_t i : first) {
    const std::uint64_t base = w.hits_per_miss > 0 ? primed_seed_base(seed) : kFreshBase - 1;
    Sample s;
    const std::string bad = check_answer(
        rig->docs[i], roundtrip(rig->sock, request_text(w, rig->docs[i], base)), s);
    if (!bad.empty()) die("set-up job on " + rig->docs[i].file + " failed: " + bad);
  }
  return rig;
}

// --- the measured window ---------------------------------------------------------

struct RunOutcome {
  std::vector<Sample> samples;
  std::size_t failed = 0;
};

RunOutcome measure(const Workload& w, Rig& rig, Calibration& cal, std::uint64_t seed,
                   double seconds) {
  RunOutcome out;
  std::vector<std::optional<ProofCounts>> first_counts(rig.docs.size());
  JobStream stream(w, rig.docs.size(), seed);
  const auto deadline = steady_clock::now() + std::chrono::duration_cast<steady_clock::duration>(
                                                  std::chrono::duration<double>(seconds));
  while (steady_clock::now() < deadline) {
    Sample s;
    s.pick = stream.next();
    const Doc& d = rig.docs[s.pick.doc];
    const std::string request = request_text(w, d, s.pick.seed_base);
    s.cal_before = cal.tick();
    const auto t0 = steady_clock::now();
    std::optional<std::string> reply;
    std::string bad = "server hung up without an answer";
    try {
      util::write_frame(rig.sock, request);
      reply = util::read_frame(rig.sock);
    } catch (const std::exception& e) {
      bad = e.what();
    }
    s.latency_ms = ms_since(t0);
    if (reply.has_value()) {
      try {
        bad = check_answer(d, util::Json::parse(*reply), s);
      } catch (const std::exception& e) {
        bad = e.what();
      }
    }
    if (bad.empty()) {
      std::optional<ProofCounts>& first = first_counts[s.pick.doc];
      if (!first.has_value()) first = s.counts;
      if (!(*first == s.counts)) bad = "proof counts differ from an earlier answer";
    }
    s.ok = bad.empty();
    if (!s.ok) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: %s (seed_base %llu): %s\n", d.file.c_str(),
                   static_cast<unsigned long long>(s.pick.seed_base), bad.c_str());
    }
    out.samples.push_back(s);
    if (!reply.has_value()) break;
  }
  // Each request's "after" run is the first one that follows it.
  std::size_t after = cal.tick(true);
  for (std::size_t i = out.samples.size(); i-- > 0;) {
    if (i + 1 < out.samples.size() && out.samples[i + 1].cal_before > out.samples[i].cal_before)
      after = out.samples[i + 1].cal_before;
    out.samples[i].cal_after = after;
  }
  return out;
}

// --- the traced replay ---------------------------------------------------------

/// The calls Service::run is made of, in the order a job meets them.
enum Layer { kParse, kBuild, kCache, kMonteCarlo, kCompile, kExplore, kReplay, kCrossval, kJson,
             kLayerCount };
constexpr const char* kLayerMetric[kLayerCount] = {
    "parse_ms",   "build_ms",   "cache_ms",    "montecarlo_ms", "compile_ms",
    "explore_ms", "replay_ms",  "crossval_ms", "json_ms"};

/// Busy time per layer of one job, and the work it did.
struct Layers {
  std::array<double, kLayerCount> ms{};
  std::optional<ProofCounts> counts;  // absent when answered from the cache
};

/// Re-execute one request the way Service::run does (api/service.cpp),
/// with a span around each call into a layer.
Layers trace_job(const std::string& request, const api::ResultCache& cache) {
  Layers L;
  api::Job job;
  scenarios::ScenarioParams params;
  timed(L.ms[kParse], [&] {
    job = api::Job::from_json(util::Json::parse(request).at("job"));
    params = api::resolved_params(job, api::resolve_scenario(job));
  });
  const campaign::ScenarioSpec spec = timed(L.ms[kBuild], [&] { return scenarios::build(params); });

  const std::string key =
      timed(L.ms[kCache], [&] { return cache.result_key(params, job.cross_validate); });
  if (std::optional<util::Json> stored =
          timed(L.ms[kCache], [&] { return cache.load_result(key); })) {
    const api::JobResult hit =
        timed(L.ms[kCache], [&] { return api::JobResult::from_json(*stored); });
    timed(L.ms[kJson], [&] { (void)hit.to_json().dump_canonical(); });
    return L;
  }
  timed(L.ms[kCache], [&] { (void)cache.load_checkpoint(cache.checkpoint_key(params)); });

  campaign::ScenarioSpec mc_spec = spec;
  mc_spec.mode = campaign::RunMode::kMonteCarlo;
  campaign::CampaignOptions copt;
  copt.threads = job.threads;
  campaign::CampaignReport report =
      timed(L.ms[kMonteCarlo], [&] { return campaign::CampaignRunner(copt).run(mc_spec); });

  const verify::VerifyInput input = timed(L.ms[kCompile], [&] { return spec.verify_input(); });
  const verify::CompiledModel model =
      timed(L.ms[kCompile], [&] { return verify::compile_model(input); });
  verify::VerifyOptions vopt;
  vopt.max_losses = spec.verify.max_losses;
  vopt.max_injections = spec.verify.max_injections;
  vopt.max_input_changes = spec.verify.max_input_changes;
  vopt.max_states = spec.verify.max_states;
  vopt.threads = spec.verify.threads;
  const verify::VerifyResult vr =
      timed(L.ms[kExplore], [&] { return verify::verify_pte(model, vopt); });
  campaign::VerificationOutcome vo;
  vo.status = vr.status;
  vo.states_explored = vr.states_explored;
  vo.states_stored = vr.states_stored;
  vo.transitions = vr.transitions;
  vo.threads_used = vr.threads_used;
  vo.sketch = vr.sketch;
  vo.counterexample = vr.counterexample;
  if (vo.counterexample.has_value() && spec.verify.replay) {
    const verify::ReplayResult rr = timed(
        L.ms[kReplay], [&] { return verify::replay_counterexample(input, *vo.counterexample); });
    vo.replay_attempted = true;
    vo.replay_reproduced = rr.reproduced;
    vo.replay_detail = rr.summary();
  }
  L.counts = ProofCounts{vo.status, vo.states_explored, vo.states_stored, vo.transitions};
  if (vo.status == verify::VerifyStatus::kProved) report.specs_proved = 1;
  if (vo.counterexample.has_value()) report.specs_with_counterexample = 1;
  report.scenarios[0].verification = std::move(vo);

  api::JobResult result;
  result.scenario = spec.name;
  result.proof_status = vr.status;
  result.verdict = verify::verify_status_str(vr.status);
  result.crossval = timed(L.ms[kCrossval], [&] { return scenarios::cross_validate(report); });
  result.report = std::move(report);
  result.ok = result.crossval->ok();
  timed(L.ms[kJson], [&] { (void)result.to_json().dump_canonical(); });
  timed(L.ms[kCache], [&] { cache.store_result(key, result.scenario, result.to_json()); });
  return L;
}

// --- reporting -------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void put(util::Json& metrics, const std::string& name, double value, const std::string& unit) {
  util::Json m = util::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  fs::path docs;
  fs::path work_dir;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument '" + flag + "'");
    kv[flag.substr(2)] = argv[++i];
  }
  auto need = [&](const std::string& key) {
    const auto it = kv.find(key);
    if (it == kv.end()) die("missing --" + key);
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  Args a;
  try {
    a.workload = need("workload");
    a.seed = std::stoull(need("seed"));
    a.seconds = std::stod(need("seconds"));
    a.trace = std::stoi(need("trace"));
  } catch (const std::logic_error&) {
    die("--seed, --seconds and --trace take numbers");
  }
  a.docs = need("docs");
  a.work_dir = need("work-dir");
  if (!kv.empty()) die("unknown flag --" + kv.begin()->first);
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) die("need --seconds > 0, --trace 0|1");
  return a;
}

int run(const Args& args) {
  const Workload w = workload_named(args.workload);
  const fs::path run_dir = args.work_dir / std::to_string(::getpid());
  const fs::path rig_dir = run_dir / "rig";
  fs::create_directories(run_dir);
  pin_to_one_cpu();
  Calibration cal(run_dir);

  // Set-up, several times: every repetition builds a fresh rig; all but
  // the last are torn down again.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (std::size_t rep = 0; rep < w.setup_reps; ++rep) {
    rig.reset();
    const std::size_t before = cal.tick(true);
    const auto t0 = steady_clock::now();
    rig = set_up(w, args.docs, rig_dir, args.seed);
    const double raw_ms = ms_since(t0);
    setup_s.push_back(cal.scale(raw_ms, before, cal.tick(true)) / 1000.0);
  }

  const auto window_t0 = steady_clock::now();
  RunOutcome run = measure(w, *rig, cal, args.seed, args.seconds);
  const double window_s = ms_since(window_t0) / 1000.0;
  std::size_t failed = run.failed;
  std::size_t hits = 0;
  double sum_ms = 0.0, sum_log = 0.0, outside_ms = 0.0;
  for (const Sample& s : run.samples) {
    const double ms = cal.scale(s.latency_ms, s.cal_before, s.cal_after);
    sum_ms += ms;
    sum_log += std::log(ms);
    outside_ms += cal.scale(s.latency_ms - s.exec_ms, s.cal_before, s.cal_after);
    hits += s.hit ? 1 : 0;
  }
  const std::size_t attempted = run.samples.size();
  if (attempted == 0) die("no job completed");
  const double n_jobs = static_cast<double>(attempted);

  util::Json metrics = util::Json::object();
  if (args.trace == 0) {
    put(metrics, "job_ms", std::exp(sum_log / n_jobs), "ms");
    put(metrics, "mean_ms", sum_ms / n_jobs, "ms");
    put(metrics, "setup_s", median(setup_s), "s");
  } else {
    // Replay the window's jobs through the layers, one at a time, for at
    // most half as long as the window lasted (and 10 s).  Hits read the rig's cache
    // (where the server stored them); misses a scratch cache that has
    // never seen their key.
    rig->server->drain();
    const api::ResultCache served({(rig_dir / "cache").string()});
    const api::ResultCache scratch({(run_dir / "trace-cache").string()});
    Layers sum;
    std::size_t traced = 0, states_stored = 0;
    const auto t0 = steady_clock::now();
    for (const Sample& s : run.samples) {
      if (ms_since(t0) > std::min(args.seconds * 500.0, kTraceBudgetMs)) break;
      if (!s.ok) continue;
      const Doc& d = rig->docs[s.pick.doc];
      const std::string request = request_text(w, d, s.pick.seed_base);
      const std::size_t before = cal.tick();
      Layers L = trace_job(request, s.hit ? served : scratch);
      const std::size_t after = cal.tick(true);
      if (L.counts.has_value() && !(*L.counts == s.counts)) {
        ++failed;
        std::fprintf(stderr, "perfbench: traced %s disagrees with the served answer\n",
                     d.file.c_str());
      }
      for (std::size_t i = 0; i < kLayerCount; ++i) sum.ms[i] += cal.scale(L.ms[i], before, after);
      if (L.counts.has_value()) states_stored += L.counts->stored;
      ++traced;
    }
    if (traced == 0) die("no job could be traced");
    const double n = static_cast<double>(traced);
    for (std::size_t i = 0; i < kLayerCount; ++i) put(metrics, kLayerMetric[i], sum.ms[i] / n, "ms");
    put(metrics, "outside_service_ms", outside_ms / n_jobs, "ms");
    put(metrics, "states_stored", static_cast<double>(states_stored) / n, "count");
    put(metrics, "cache_hits", static_cast<double>(hits), "count");
  }
  rig.reset();
  std::error_code ec;
  fs::remove_all(run_dir, ec);

  std::fprintf(stderr,
               "perfbench %s seed %llu: %zu jobs in %.2f s (%zu failed, %zu cache hits); "
               "calibration kernel median %.3f ms (reference %.2f)\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed), attempted,
               window_s, failed, hits, cal.median_kernel_ms(), kKernelReferenceMs);

  util::Json out = util::Json::object();
  out.set("correct", failed == 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    die(e.what());
  }
}
