#include "pipeline/stage_cache.h"

#include <cctype>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/hash.h"
#include "util/io.h"

namespace musenet::pipeline {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'M', 'U', 'S', 'E', 'S', 'T', 'G', '1'};

struct EntryHeader {
  char magic[8];
  uint64_t key;
  uint64_t payload_size;
  uint32_t payload_crc;
};

/// Splits a canonical description into (key, value) lines, preserving order.
std::vector<std::pair<std::string, std::string>> ParseLines(
    const std::string& desc) {
  std::vector<std::pair<std::string, std::string>> lines;
  size_t begin = 0;
  while (begin < desc.size()) {
    size_t end = desc.find('\n', begin);
    if (end == std::string::npos) end = desc.size();
    const std::string line = desc.substr(begin, end - begin);
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      lines.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    begin = end + 1;
  }
  return lines;
}

std::string ClassifyChange(const std::string& key, const std::string* old_value,
                           const std::string* new_value) {
  const auto quote = [](const std::string* v) {
    return v == nullptr ? std::string("<absent>") : "'" + *v + "'";
  };
  if (key.rfind("dep:", 0) == 0) {
    return "upstream '" + key.substr(4) + "' output changed";
  }
  if (key == "code_salt") {
    return "code version changed (" + quote(old_value) + " -> " +
           quote(new_value) + ")";
  }
  std::string field = key.rfind("cfg:", 0) == 0 ? key.substr(4) : key;
  return "config changed: " + field + " " + quote(old_value) + " -> " +
         quote(new_value);
}

}  // namespace

StageCache::StageCache(std::string dir) : dir_(std::move(dir)) {}

std::string StageCache::Sanitize(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-' &&
        ch != '.') {
      ch = '_';
    }
  }
  return out;
}

std::string StageCache::EntryPath(const std::string& stage_name,
                                  uint64_t key) const {
  return dir_ + "/" + Sanitize(stage_name) + "-" + util::HashHex(key) +
         ".stage";
}

std::string StageCache::ManifestPath(const std::string& stage_name) const {
  return dir_ + "/" + Sanitize(stage_name) + ".manifest";
}

std::string StageCache::ScratchDir(const std::string& stage_name,
                                   uint64_t key) const {
  if (dir_.empty()) return "";
  return dir_ + "/scratch/" + Sanitize(stage_name) + "-" + util::HashHex(key);
}

void StageCache::DropScratch(const std::string& stage_name,
                             uint64_t key) const {
  const std::string scratch = ScratchDir(stage_name, key);
  if (scratch.empty()) return;
  std::error_code ec;
  fs::remove_all(scratch, ec);  // Best-effort cleanup.
}

std::string StageCache::DiffReason(const std::string& old_desc,
                                   const std::string& new_desc) {
  const auto old_lines = ParseLines(old_desc);
  const auto new_lines = ParseLines(new_desc);
  std::map<std::string, std::string> old_map(old_lines.begin(),
                                             old_lines.end());
  std::map<std::string, std::string> new_map(new_lines.begin(),
                                             new_lines.end());
  // New-description order first: report the first field whose value moved or
  // that appeared; then fields that vanished.
  for (const auto& [key, value] : new_lines) {
    auto it = old_map.find(key);
    if (it == old_map.end()) return ClassifyChange(key, nullptr, &value);
    if (it->second != value) return ClassifyChange(key, &it->second, &value);
  }
  for (const auto& [key, value] : old_lines) {
    if (!new_map.count(key)) return ClassifyChange(key, &value, nullptr);
  }
  return "";
}

StageCache::Probe StageCache::Lookup(const std::string& stage_name,
                                     uint64_t key,
                                     const std::string& description) const {
  Probe probe;
  if (!enabled()) {
    probe.miss_reason = "cache disabled";
    return probe;
  }

  // Miss diagnosis against the manifest happens lazily — only when the entry
  // turns out to be unusable.
  const auto miss_with_manifest_reason = [&](const std::string& fallback) {
    auto manifest = util::ReadFileToString(ManifestPath(stage_name));
    if (!manifest.ok()) {
      probe.miss_reason = "first run (no manifest for this stage)";
      return probe;
    }
    const std::string diff = DiffReason(*manifest, description);
    probe.miss_reason = diff.empty() ? fallback : diff;
    return probe;
  };

  auto bytes = util::ReadFileToString(EntryPath(stage_name, key));
  if (!bytes.ok()) {
    return miss_with_manifest_reason("cache entry missing (evicted or never "
                                     "committed)");
  }
  if (bytes->size() < sizeof(EntryHeader)) {
    probe.miss_reason = "corrupt cache entry (truncated header); recomputing";
    return probe;
  }
  EntryHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    probe.miss_reason = "corrupt cache entry (bad magic); recomputing";
    return probe;
  }
  if (header.key != key) {
    probe.miss_reason = "corrupt cache entry (key mismatch); recomputing";
    return probe;
  }
  if (bytes->size() - sizeof(EntryHeader) != header.payload_size) {
    probe.miss_reason = "corrupt cache entry (truncated payload); recomputing";
    return probe;
  }
  const char* payload = bytes->data() + sizeof(EntryHeader);
  if (util::Crc32(payload, header.payload_size) != header.payload_crc) {
    probe.miss_reason = "corrupt cache entry (payload CRC mismatch); "
                        "recomputing";
    return probe;
  }
  probe.hit = true;
  probe.payload.assign(payload, header.payload_size);
  return probe;
}

Status StageCache::Store(const std::string& stage_name, uint64_t key,
                         const std::string& description,
                         const std::string& payload) {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create cache dir '" + dir_ +
                           "': " + ec.message());
  }

  std::string bytes;
  bytes.reserve(sizeof(EntryHeader) + payload.size());
  // Zero the whole header, padding included: value-initialization does not
  // promise zeroed padding, and the padding bytes are written to disk.
  EntryHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.key = key;
  header.payload_size = payload.size();
  header.payload_crc =
      util::Crc32(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&header), sizeof(header));
  bytes.append(payload);
  MUSE_RETURN_IF_ERROR(
      util::AtomicWriteFile(EntryPath(stage_name, key), bytes));
  // The manifest commits after the entry: if we crash between the two
  // writes, the next run sees the old manifest (a slightly stale reason)
  // but a valid entry — correctness never depends on the manifest.
  return util::AtomicWriteFile(ManifestPath(stage_name), description);
}

}  // namespace musenet::pipeline
