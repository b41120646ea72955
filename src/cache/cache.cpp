#include "cache/cache.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "support/strings.h"

namespace qfs::cache {

namespace fs = std::filesystem;

namespace {

constexpr const char kMagic[] = "qfs-cache 1";

/// Serialized entry: four header lines, then the raw payload bytes.
///   qfs-cache 1
///   key <32 hex>
///   size <decimal byte count>
///   sum <32 hex payload digest>
std::string encode_entry(const Fingerprint& key, const std::string& payload) {
  const std::string key_hex = key.hex();
  const std::string size = std::to_string(payload.size());
  const std::string sum = qfs::hash128(payload).hex();
  std::string entry;
  entry.reserve(sizeof(kMagic) + key_hex.size() + size.size() + sum.size() +
                payload.size() + 16);
  entry.append(kMagic).append("\nkey ").append(key_hex);
  entry.append("\nsize ").append(size);
  entry.append("\nsum ").append(sum).append("\n");
  entry.append(payload);
  return entry;
}

/// Per-process token making temporary-file names unique across concurrent
/// writers (threads disambiguate via the atomic counter).
std::uint64_t process_token() {
  static const std::uint64_t token = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  return token;
}

}  // namespace

CompileCache::CompileCache(CacheConfig config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  shards_ = std::vector<Shard>(static_cast<std::size_t>(config_.shards));
  shard_budget_ =
      config_.memory_budget_bytes / static_cast<std::size_t>(config_.shards);
}

CompileCache::Shard& CompileCache::shard_for(const Fingerprint& key) {
  return shards_[static_cast<std::size_t>(key.lo) %
                 static_cast<std::size_t>(config_.shards)];
}

std::string CompileCache::entry_path(const Fingerprint& key) const {
  if (config_.disk_dir.empty()) return "";
  std::string hex = key.hex();
  return (fs::path(config_.disk_dir) / hex.substr(0, 2) /
          (hex.substr(2) + ".entry"))
      .string();
}

std::optional<std::string> CompileCache::memory_lookup(const Fingerprint& key) {
  if (shard_budget_ == 0) return std::nullopt;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.hex());
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void CompileCache::memory_store(const Fingerprint& key,
                                const std::string& payload) {
  if (shard_budget_ == 0 || payload.size() > shard_budget_) return;
  Shard& shard = shard_for(key);
  std::string hex = key.hex();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(hex);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->second.size();
    it->second->second = payload;
    shard.bytes += payload.size();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.emplace_front(hex, payload);
    shard.index[hex] = shard.lru.begin();
    shard.bytes += payload.size();
  }
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    auto& victim = shard.lru.back();
    shard.bytes -= victim.second.size();
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    stats_.count_eviction();
  }
}

std::optional<std::string> CompileCache::disk_lookup(const Fingerprint& key) {
  std::string path = entry_path(key);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;  // absent: a plain miss, not corruption

  // Parse and verify the header; any deviation is a recorded corrupt miss.
  auto fail = [this]() -> std::optional<std::string> {
    stats_.count_corrupt();
    return std::nullopt;
  };
  // One read into a buffer sized from the file; the header is parsed in
  // place and the payload is the buffer with the header erased.
  const std::streamoff length = in.tellg();
  if (length < 0) return fail();
  std::string raw(static_cast<std::size_t>(length), '\0');
  in.seekg(0);
  in.read(raw.data(), length);
  raw.resize(static_cast<std::size_t>(in.gcount()));

  std::string_view rest(raw);
  std::string_view line;
  // Every header line must end in '\n'; a file cut inside the header fails.
  auto next_line = [&rest, &line] {
    std::size_t end = rest.find('\n');
    if (end == std::string_view::npos) return false;
    line = rest.substr(0, end);
    rest.remove_prefix(end + 1);
    return true;
  };
  if (!next_line() || line != kMagic) return fail();
  if (!next_line() || !qfs::starts_with(line, "key ") ||
      line.substr(4) != key.hex()) {
    return fail();
  }
  if (!next_line() || !qfs::starts_with(line, "size ")) return fail();
  int declared_size = 0;
  if (!qfs::parse_int(line.substr(5), declared_size) || declared_size < 0) {
    return fail();
  }
  if (!next_line() || !qfs::starts_with(line, "sum ")) return fail();
  const std::string_view declared_sum = line.substr(4);
  if (rest.size() != static_cast<std::size_t>(declared_size)) return fail();
  if (qfs::hash128(rest).hex() != declared_sum) return fail();
  raw.erase(0, raw.size() - rest.size());
  return raw;
}

void CompileCache::disk_store(const Fingerprint& key,
                              const std::string& payload) {
  std::string path = entry_path(key);
  if (path.empty()) return;
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  fs::path final_path(path);
  fs::create_directories(final_path.parent_path(), ec);
  if (ec) return;  // best effort: an unwritable store degrades to misses

  std::ostringstream tmp_name;
  tmp_name << "." << final_path.filename().string() << "." << std::hex
           << process_token() << "." << counter.fetch_add(1) << ".tmp";
  fs::path tmp_path = final_path.parent_path() / tmp_name.str();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << encode_entry(key, payload);
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp_path, ec);
      return;
    }
  }
  // Atomic publish: readers see either the old complete entry or the new
  // complete entry, never a partial write.
  fs::rename(tmp_path, final_path, ec);
  if (ec) fs::remove(tmp_path, ec);
}

std::optional<std::string> CompileCache::lookup(const Fingerprint& key) {
  if (auto hit = memory_lookup(key)) {
    stats_.count_memory_hit();
    return hit;
  }
  if (auto hit = disk_lookup(key)) {
    stats_.count_disk_hit(hit->size());
    memory_store(key, *hit);  // promote for subsequent lookups
    return hit;
  }
  stats_.count_miss();
  return std::nullopt;
}

void CompileCache::store(const Fingerprint& key, const std::string& payload) {
  memory_store(key, payload);
  disk_store(key, payload);
  stats_.count_store(payload.size());
}

}  // namespace qfs::cache
