#include "api/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <vector>

#include "scenarios/canonical.hpp"
#include "util/digest.hpp"
#include "util/text.hpp"
#include "verify/checker.hpp"

namespace ptecps::api {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kResultSchema = "ptecps-cache-result";
// v2 entries carry no expectation, and cross_validation only when their
// key asked for it; an entry of any other version reads as a miss.
constexpr std::int64_t kResultSchemaVersion = 2;

// A store rescans once this object has written max_bytes / kHeadroom
// since its last scan, which bounds how far other writers can take the
// directory past the cap unseen; an evicting scan stops that far below
// the cap, so the next eviction is that many written bytes away.
constexpr std::uint64_t kHeadroom = 8;

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) return std::nullopt;
    return bytes;
  } catch (const std::ios_base::failure&) {
    return std::nullopt;  // e.g. a directory where the entry belongs
  }
}

/// Atomic publish: readers see the old entry or the new one, never a
/// torn write.  Each publish writes its own temp file, so two writers of
/// one key (threads or processes) never write into the same inode.
/// Returns false on any I/O failure, leaving no temp file behind (the
/// cache is advisory; a failed store is just a future miss).
bool write_file_atomic(const fs::path& path, const std::string& bytes) {
  static std::atomic<std::uint64_t> publishes{0};
  const fs::path tmp = util::cat(path.string(), ".tmp.", ::getpid(), ".",
                                 publishes.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
  }
  std::error_code ec;
  if (out) {
    fs::rename(tmp, path, ec);
    if (!ec) return true;
  }
  fs::remove(tmp, ec);
  return false;
}

void touch(const fs::path& path) {
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

}  // namespace

util::Json CacheStats::to_json() const {
  util::Json out = util::Json::object();
  out.set("dir", dir);
  out.set("results", results);
  out.set("bytes", bytes);
  out.set("max_bytes", max_bytes);
  out.set("scans", scans);
  return out;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  for (const char* sub : {"", "results"}) {
    const fs::path dir = fs::path(options_.dir) / sub;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir))
      throw std::runtime_error(util::cat("cache: cannot create directory '", dir.string(),
                                         "'", ec ? util::cat(": ", ec.message()) : ""));
  }
}

std::string ResultCache::result_path(const std::string& key) const {
  return (fs::path(options_.dir) / "results" / (key + ".json")).string();
}

std::string ResultCache::result_key(const scenarios::ScenarioParams& params,
                                    bool cross_validate) const {
  // Thread counts are masked: results are bit-identical at every count.
  scenarios::ScenarioParams masked = params;
  masked.verify.threads = 0;
  util::Sha256 h;
  h.update(scenarios::canonical_text(masked));
  h.update("\n");
  h.update(verify::kEngineTag);
  h.update(cross_validate ? "\nxval=1" : "\nxval=0");
  const auto sum = h.finish();
  return util::Sha256::to_hex(sum.data(), sum.size());
}

std::optional<util::Json> ResultCache::load_result(const std::string& key) const {
  const fs::path path = result_path(key);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;
  try {
    util::Json wrapper = util::Json::parse(*bytes);
    util::JsonReader r(wrapper, "cache-entry");
    if (r.string("schema", "") != kResultSchema) return std::nullopt;
    if (r.uinteger("version", 0) != static_cast<std::uint64_t>(kResultSchemaVersion))
      return std::nullopt;
    if (r.string("engine", "") != verify::kEngineTag) return std::nullopt;
    r.string("scenario", "");  // informational (pte cache stats greps it)
    const util::Json* result = r.optional("result");
    if (result == nullptr) return std::nullopt;
    util::Json out = *result;
    touch(path);
    return out;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/corrupt entry: a miss, never an error
  }
}

void ResultCache::store_result(const std::string& key, const std::string& scenario,
                               const util::Json& result_json) const {
  util::Json wrapper = util::Json::object();
  wrapper.set("schema", std::string(kResultSchema));
  wrapper.set("version", kResultSchemaVersion);
  wrapper.set("engine", std::string(verify::kEngineTag));
  wrapper.set("scenario", scenario);
  wrapper.set("result", result_json);
  const std::string text = wrapper.dump(2);
  if (write_file_atomic(result_path(key), text)) account(text.size());
}

void ResultCache::account(std::uint64_t bytes) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  bytes_ += bytes;
  written_since_scan_ += bytes;
  if (scans_ == 0 || bytes_ > options_.max_bytes ||
      written_since_scan_ >= options_.max_bytes / kHeadroom)
    gc_locked();
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.dir = options_.dir;
  s.max_bytes = options_.max_bytes;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.scans = scans_;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(options_.dir) / "results", ec)) {
    if (!entry.is_regular_file(ec)) continue;
    ++s.results;
    s.bytes += entry.file_size(ec);
  }
  return s;
}

std::size_t ResultCache::clear() const {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(options_.dir) / "results", ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

std::size_t ResultCache::gc() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gc_locked();
}

std::size_t ResultCache::gc_locked() const {
  struct Entry {
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& it : fs::directory_iterator(fs::path(options_.dir) / "results", ec)) {
    if (!it.is_regular_file(ec)) continue;
    Entry e;
    e.path = it.path();
    e.size = it.file_size(ec);
    if (ec) continue;  // evicted by another writer mid-scan
    e.mtime = it.last_write_time(ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  ++scans_;
  written_since_scan_ = 0;
  bytes_ = total;
  if (total <= options_.max_bytes) return 0;
  const std::uint64_t low_water = options_.max_bytes - options_.max_bytes / kHeadroom;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  std::size_t evicted = 0;
  for (const Entry& e : entries) {
    if (total <= low_water) break;
    if (fs::remove(e.path, ec)) {
      total -= e.size;
      ++evicted;
    }
  }
  bytes_ = total;
  return evicted;
}

}  // namespace ptecps::api
