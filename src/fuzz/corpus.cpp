#include "fuzz/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenarios/canonical.hpp"
#include "util/text.hpp"

namespace fs = std::filesystem;

namespace ptecps::fuzz {

CorpusEntry* Corpus::add(CorpusEntry entry) {
  if (entry.digest.empty()) entry.digest = scenarios::params_digest(entry.doc.params);
  if (!digests_.insert(entry.digest).second) {
    ++dedup_rejects_;
    return nullptr;
  }
  if (entry.bucket.empty()) entry.bucket = structure_bucket(entry.doc.params);
  entries_.push_back(std::move(entry));
  return &entries_.back();
}

std::size_t Corpus::save(const std::string& dir, std::vector<std::string>& errors) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    errors.push_back(util::cat("corpus save: cannot create ", dir, ": ", ec.message()));
    return 0;
  }
  std::size_t written = 0;
  for (const CorpusEntry& e : entries_) {
    const fs::path path = fs::path(dir) / util::cat(e.digest.substr(0, 16), ".json");
    if (fs::exists(path, ec)) continue;  // content-addressed: already current
    std::ofstream out(path);
    if (!out) {
      errors.push_back(util::cat("corpus save: cannot write ", path.string()));
      continue;
    }
    out << scenarios::to_json_sparse(e.doc).dump(2) << "\n";
    ++written;
  }
  return written;
}

std::size_t Corpus::load(const std::string& dir, std::vector<std::string>& errors) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::size_t added = 0;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      CorpusEntry e;
      e.doc = scenarios::document_from_text(buf.str());
      (void)scenarios::build(e.doc.params);  // reject stale/invalid files
      if (add(std::move(e)) != nullptr) ++added;
    } catch (const std::exception& ex) {
      errors.push_back(util::cat("corpus load: ", path.string(), ": ", ex.what()));
    }
  }
  return added;
}

}  // namespace ptecps::fuzz
