#include "codegen/artifact_cache.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"

extern char** environ;

namespace tvmbo::codegen {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string JitOptions::resolved_compiler() const {
  if (!compiler.empty()) return compiler;
  if (const char* env = std::getenv("CC"); env != nullptr && *env != '\0') {
    return env;
  }
  return "cc";
}

std::string JitOptions::resolved_cache_dir() const {
  if (!cache_dir.empty()) return cache_dir;
  if (const char* env = std::getenv("TVMBO_JIT_CACHE");
      env != nullptr && *env != '\0') {
    return env;
  }
  return (fs::temp_directory_path() / "tvmbo-jit-cache").string();
}

namespace {

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TVMBO_CHECK(out.good()) << "cannot write " << path.string();
  out << content;
}

std::string read_tail(const fs::path& path, std::size_t max_bytes = 2000) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (text.size() > max_bytes) {
    text = "..." + text.substr(text.size() - max_bytes);
  }
  return text;
}

/// Splits on whitespace, as the shell split the old command line.
void append_words(const std::string& text, std::vector<std::string>* out) {
  std::istringstream words(text);
  for (std::string word; words >> word;) out->push_back(word);
}

/// Runs argv[0] (looked up on $PATH) with stdout and stderr sent to
/// `log_path`, and waits for it. No shell is involved, so paths need no
/// quoting, no /bin/sh is exec'd, and this process keeps its SIGINT and
/// SIGQUIT dispositions (std::system ignores both while it waits).
/// Returns a description of the failure, or an empty string on exit 0.
std::string run_logged(const std::vector<std::string>& args,
                       const fs::path& log_path) {
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = 0;
  const int error =
      ::posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (error != 0) {
    return "cannot start '" + args[0] + "': " + std::strerror(error);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return std::string("waitpid: ") + std::strerror(errno);
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status) == 0
               ? ""
               : "exit " + std::to_string(WEXITSTATUS(status));
  }
  return "signal " + std::to_string(WTERMSIG(status));
}

}  // namespace

/// Holds the per-key mutex of one key for its scope, and erases the key's
/// entry when the last holder (or waiter) leaves, so in_flight_ only ever
/// holds keys with a request in progress.
class ArtifactCache::KeyLock {
 public:
  KeyLock(ArtifactCache& cache, const std::string& key)
      : cache_(cache), key_(key) {
    {
      std::lock_guard<std::mutex> lock(cache_.mutex_);
      slot_ = &cache_.in_flight_[key_];  // node-based: the address is stable
      ++slot_->holders;
    }
    slot_->mutex.lock();
  }
  ~KeyLock() {
    slot_->mutex.unlock();
    std::lock_guard<std::mutex> lock(cache_.mutex_);
    if (--slot_->holders == 0) cache_.in_flight_.erase(key_);
  }
  KeyLock(const KeyLock&) = delete;
  KeyLock& operator=(const KeyLock&) = delete;

 private:
  ArtifactCache& cache_;
  const std::string key_;
  InFlight* slot_ = nullptr;
};

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  TVMBO_CHECK(!dir_.empty()) << "artifact cache requires a directory";
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ArtifactCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = CacheStats{};
}

std::size_t ArtifactCache::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_.size();
}

std::size_t ArtifactCache::artifacts() const {
  std::size_t count = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    // tvmbo_<key>.so; compile temporaries are tvmbo_<key>.tmp.<...>.so.
    const fs::path& path = it->path();
    if (path.extension() == ".so" &&
        path.stem().string().find('.') == std::string::npos) {
      ++count;
    }
  }
  return count;
}

Artifact ArtifactCache::get_or_compile(const std::string& source,
                                       const std::string& compiler,
                                       const std::string& flags) {
  const std::string key =
      hex16(fnv1a64(source + "\x1f" + compiler + "\x1f" + flags));
  const fs::path base = fs::path(dir_) / ("tvmbo_" + key);
  const fs::path so_path = base.string() + ".so";

  // Serialize per key so concurrent batch members that landed on the same
  // configuration compile it once; distinct keys proceed in parallel.
  const KeyLock key_lock(*this, key);

  std::error_code ec;
  if (fs::exists(so_path, ec)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return {so_path.string(), true, 0.0};
  }

  fs::create_directories(dir_, ec);
  TVMBO_CHECK(!ec) << "cannot create artifact cache directory " << dir_
                   << ": " << ec.message();

  const fs::path c_path = base.string() + ".c";
  const fs::path log_path = base.string() + ".log";
  write_file(c_path, source);

  // Compile to a process-unique temporary and rename into place, so a
  // concurrent process racing on the same key never observes a partial
  // shared object.
  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp_path =
      base.string() + ".tmp." +
      std::to_string(static_cast<std::uint64_t>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1)) + ".so";
  std::vector<std::string> args;
  append_words(compiler, &args);
  append_words(flags, &args);
  TVMBO_CHECK(!args.empty()) << "JIT compile needs a compiler";
  args.insert(args.end(), {"-o", tmp_path.string(), c_path.string(), "-lm"});
  Stopwatch timer;
  const std::string failure = run_logged(args, log_path);
  const double elapsed = timer.elapsed_seconds();
  if (!failure.empty()) {
    fs::remove(tmp_path, ec);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failures;
    }
    TVMBO_CHECK(false) << "JIT compile failed (" << failure << "): '"
                       << compiler << " " << flags << "' on "
                       << c_path.string() << "\n"
                       << read_tail(log_path);
  }
  fs::rename(tmp_path, so_path, ec);
  if (ec) {
    // A concurrent process won the rename race; its artifact is
    // equivalent (same key, same source).
    fs::remove(tmp_path, ec);
    TVMBO_CHECK(fs::exists(so_path))
        << "rename into artifact cache failed: " << so_path.string();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  stats_.compile_s += elapsed;
  return {so_path.string(), false, elapsed};
}

ArtifactCache& ArtifactCache::shared(const JitOptions& options) {
  static std::mutex registry_mutex;
  static std::unordered_map<std::string, std::unique_ptr<ArtifactCache>>*
      registry = new std::unordered_map<std::string,
                                        std::unique_ptr<ArtifactCache>>();
  const std::string dir = options.resolved_cache_dir();
  std::lock_guard<std::mutex> lock(registry_mutex);
  std::unique_ptr<ArtifactCache>& slot = (*registry)[dir];
  if (slot == nullptr) slot = std::make_unique<ArtifactCache>(dir);
  return *slot;
}

}  // namespace tvmbo::codegen
