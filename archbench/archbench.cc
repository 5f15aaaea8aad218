// archbench — the archive benchmark (see README.md in this directory).
//
// One process builds a fresh AE(3,2,5) archive per cycle, serves it with
// an in-process aecd net::Server and drives it over loopback with three
// net::Client connections (one writer, two readers), checking every byte
// it reads back against the seed-derived source.
//
//   archbench --workload mixed-small|stream-large|node-loss --seed N
//             --seconds S --trace 0|1 --root DIR
//             [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 measures the end-to-end metrics. --trace 1 spends half the
// time untraced and half traced and prints the per-layer metrics plus the
// tracing overhead (traced minus untraced value of each end-to-end
// metric). The last stdout line is one JSON object {correct, attempted,
// failed, metrics}; the exit code is non-zero on any byte mismatch,
// unrecovered block, fingerprint difference or failed reconciliation.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "cluster/cluster_store.h"
#include "common/check.h"
#include "common/cpu.h"
#include "core/codec/block_store.h"
#include "core/codec/store_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/archive.h"

#ifndef ARCHBENCH_BUILD_TYPE
#define ARCHBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace aec;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- workloads -------------------------------------------------------------

// Every workload runs the same cycle on a fresh archive: set up (create +
// preload), cold open, lose one node (fail, optionally restore every file
// degraded, rebuild, verify), then serve: a closed-loop writer, then
// optionally two closed-loop readers. The workloads differ in block and
// file size and in which phase their GETs come from; README.md says why
// each exists.
struct Workload {
  const char* name;
  std::size_t block_size;
  std::size_t file_bytes;
  std::size_t preload_files;
  /// Writer PUTs per cycle; bounds the bytes one cycle stores.
  std::size_t puts_per_cycle;
  /// Random GETs the two readers share per cycle, after the writer is
  /// done; 0 when the workload's GETs are the degraded restore.
  std::size_t gets_per_cycle;
  /// While the node is down, the two readers restore every preloaded file
  /// once (degraded, cold cache); those GETs are the workload's GETs.
  bool degraded_restore;
};

constexpr Workload kWorkloads[] = {
    {"mixed-small", 4096, 64u << 10, 2000, 1000, 6000, false},
    {"stream-large", 256u << 10, 4u << 20, 64, 96, 480, false},
    {"node-loss", 4096, 64u << 10, 2000, 1000, 0, true},
};

constexpr const char* kCodec = "AE(3,2,5)";
/// Blocks a healthy AE(3,2,5) PUT stores per data block: the block itself
/// and its α = 3 parities.
constexpr std::uint64_t kBlocksPerDataBlock = 4;
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kConnections = 1 + kReaders;
constexpr std::uint32_t kNodes = 4;
/// Cold opens timed per cycle, averaged: single opens fall into two modes
/// about 30% apart, and a median flips between them.
constexpr std::size_t kOpensPerCycle = 4;
/// Untraced runs measure at least this many cycles, so a trimmed mean over
/// cycles ignores the first (cold) cycle and one disturbed by the shared
/// host.
constexpr std::size_t kMinCycles = 4;
/// Wall-clock cap on the measuring loop, well inside the 180 s limit.
constexpr double kWallCapS = 140.0;

std::string store_spec(bool traced) {
  return "cluster(" + std::to_string(kNodes) + ",strand," +
         (traced ? "timed(sharded(8))" : "sharded(8)") + ")";
}

// --- seeded content --------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return mix64(seed ^ mix64(a ^ mix64(b)));
}

/// Fills `n` bytes from a counter-mode stream; file contents are a pure
/// function of the stream id, which derive() makes from (seed, cycle, file).
void fill_content(std::uint8_t* out, std::size_t n, std::uint64_t stream) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = mix64(stream++);
    std::memcpy(out + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = mix64(stream);
    std::memcpy(out + i, &v, n - i);
  }
}

/// True when `chunk` equals bytes [offset, offset + chunk.size()) of the
/// content of `stream`. Regenerates only the chunk's words, into `scratch`,
/// so a GET is checked while its bytes are still in cache.
bool matches_content(BytesView chunk, std::size_t offset,
                     std::uint64_t stream, Bytes& scratch) {
  const std::size_t skip = offset % 8;
  scratch.resize((skip + chunk.size() + 7) / 8 * 8);
  fill_content(scratch.data(), scratch.size(), stream + offset / 8);
  return std::memcmp(scratch.data() + skip, chunk.data(), chunk.size()) == 0;
}

struct Rng {
  std::uint64_t state;
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(mix64(state++) % n);
  }
};

// --- timing BlockStore decorator ------------------------------------------

struct CallTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> blocks{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Process-wide tallies of every "timed" store (one per cluster node,
/// rebuilt nodes included).
struct StoreTally {
  CallTally put, get, flush, other;
  /// While set, the keys written are collected (rebuild coverage check).
  std::atomic<bool> capture{false};
  std::mutex keys_mu;
  std::unordered_set<std::string> captured;  // guarded by keys_mu
};

StoreTally& store_tally() {
  static StoreTally tally;
  return tally;
}

class CallTimer {
 public:
  CallTimer(CallTally& tally, std::uint64_t blocks)
      : tally_(tally), blocks_(blocks), start_(Clock::now()) {}
  ~CallTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start_)
                        .count();
    tally_.calls.fetch_add(1, std::memory_order_relaxed);
    tally_.blocks.fetch_add(blocks_, std::memory_order_relaxed);
    tally_.ns.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  CallTally& tally_;
  std::uint64_t blocks_;
  Clock::time_point start_;
};

void capture_key(const BlockKey& key) {
  StoreTally& t = store_tally();
  if (!t.capture.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(t.keys_mu);
  t.captured.insert(aec::to_string(key));
}

/// Forwards every BlockStore virtual to the wrapped store and times the
/// calls into store_tally(). Registered as the "timed(child)" family.
class TimedStore final : public BlockStore {
 public:
  explicit TimedStore(std::unique_ptr<BlockStore> inner)
      : inner_(std::move(inner)) {}

  void put(const BlockKey& key, Bytes value) override {
    capture_key(key);
    CallTimer t(store_tally().put, 1);
    inner_->put(key, std::move(value));
  }
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override {
    for (const auto& item : items) capture_key(item.first);
    CallTimer t(store_tally().put, items.size());
    inner_->put_batch(std::move(items));
  }
  const Bytes* find(const BlockKey& key) const override {
    CallTimer t(store_tally().get, 1);
    return inner_->find(key);
  }
  std::optional<Bytes> get_copy(const BlockKey& key) const override {
    CallTimer t(store_tally().get, 1);
    return inner_->get_copy(key);
  }
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override {
    CallTimer t(store_tally().get, keys.size());
    return inner_->get_batch(keys);
  }
  void prefetch(const std::vector<BlockKey>& keys) const override {
    CallTimer t(store_tally().other, 0);
    inner_->prefetch(keys);
  }
  bool contains(const BlockKey& key) const override {
    CallTimer t(store_tally().other, 0);
    return inner_->contains(key);
  }
  bool erase(const BlockKey& key) override {
    CallTimer t(store_tally().other, 0);
    return inner_->erase(key);
  }
  std::uint64_t size() const override {
    CallTimer t(store_tally().other, 0);
    return inner_->size();
  }
  bool thread_safe() const noexcept override { return inner_->thread_safe(); }
  void drop_payload_cache() const override {
    CallTimer t(store_tally().other, 0);
    inner_->drop_payload_cache();
  }
  void flush() const override {
    CallTimer t(store_tally().flush, 0);
    inner_->flush();
  }
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override {
    CallTimer t(store_tally().other, 0);
    return inner_->for_each_key(fn);
  }
  void rescan() override {
    CallTimer t(store_tally().other, 0);
    inner_->rescan();
  }
  void set_observer(Observer* observer) override {
    inner_->set_observer(observer);
  }
  Observer* observer() const override { return inner_->observer(); }

 private:
  std::unique_ptr<BlockStore> inner_;
};

void register_timed_family() {
  StoreRegistry::instance().register_family(
      "timed", [](const StoreSpec& spec, const fs::path& root) {
        AEC_CHECK_MSG(spec.args.size() == 1, "timed store wants timed(child)");
        return std::unique_ptr<BlockStore>(
            std::make_unique<TimedStore>(make_store(spec.args[0], root)));
      });
}

struct TallyCounts {
  std::uint64_t put_calls = 0, put_blocks = 0, put_ns = 0;
  std::uint64_t get_calls = 0, get_blocks = 0, get_ns = 0;
  std::uint64_t flush_ns = 0, other_calls = 0, flush_calls = 0;

  static TallyCounts read() {
    const StoreTally& t = store_tally();
    TallyCounts c;
    c.put_calls = t.put.calls.load();
    c.put_blocks = t.put.blocks.load();
    c.put_ns = t.put.ns.load();
    c.get_calls = t.get.calls.load();
    c.get_blocks = t.get.blocks.load();
    c.get_ns = t.get.ns.load();
    c.flush_calls = t.flush.calls.load();
    c.flush_ns = t.flush.ns.load();
    c.other_calls = t.other.calls.load();
    return c;
  }
  std::uint64_t calls() const {
    return put_calls + get_calls + flush_calls + other_calls;
  }
  TallyCounts operator-(const TallyCounts& o) const {
    TallyCounts d;
    d.put_calls = put_calls - o.put_calls;
    d.put_blocks = put_blocks - o.put_blocks;
    d.put_ns = put_ns - o.put_ns;
    d.get_calls = get_calls - o.get_calls;
    d.get_blocks = get_blocks - o.get_blocks;
    d.get_ns = get_ns - o.get_ns;
    d.flush_calls = flush_calls - o.flush_calls;
    d.flush_ns = flush_ns - o.flush_ns;
    d.other_calls = other_calls - o.other_calls;
    return d;
  }
};

// --- process and registry probes -------------------------------------------

struct ProcCounters {
  double user_s = 0, sys_s = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t syscalls = 0;  // /proc/self/io syscr + syscw

  static ProcCounters read() {
    ProcCounters p;
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    p.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    p.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    std::ifstream io("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value)
      if (key == "syscr:" || key == "syscw:") p.syscalls += value;
    return p;
  }
};

using Snapshot = std::map<std::string, obs::MetricRow>;

/// Everything a phase is measured by, read at its start and at its end.
struct Probe {
  Snapshot metrics;
  TallyCounts store;
  ProcCounters proc;

  static Probe take() {
    Probe p;
    for (auto& row : obs::MetricsRegistry::global().snapshot().rows)
      p.metrics.emplace(row.name, std::move(row));
    p.store = TallyCounts::read();
    p.proc = ProcCounters::read();
    return p;
  }
};

const obs::MetricRow* find_row(const Probe& p, const std::string& name) {
  const auto it = p.metrics.find(name);
  return it == p.metrics.end() ? nullptr : &it->second;
}

std::uint64_t counter_delta(const Probe& a, const Probe& b,
                            const std::string& name) {
  const obs::MetricRow* rb = find_row(b, name);
  if (rb == nullptr) return 0;
  const obs::MetricRow* ra = find_row(a, name);
  return rb->value - (ra ? ra->value : 0);
}

/// Adds the (b − a) change of histogram `name` into `acc`.
void add_hist_delta(const Probe& a, const Probe& b, const std::string& name,
                    obs::MetricRow& acc) {
  const obs::MetricRow* rb = find_row(b, name);
  if (rb == nullptr) return;
  const obs::MetricRow* ra = find_row(a, name);
  if (acc.buckets.empty()) {
    acc.type = obs::MetricRow::Type::kHistogram;
    acc.buckets = rb->buckets;
    for (auto& bucket : acc.buckets) bucket.second = 0;
  }
  acc.count += rb->count - (ra ? ra->count : 0);
  acc.sum += rb->sum - (ra ? ra->sum : 0);
  for (std::size_t i = 0; i < acc.buckets.size(); ++i)
    acc.buckets[i].second +=
        rb->buckets[i].second - (ra ? ra->buckets[i].second : 0);
}

std::uint64_t hist_sum_delta(const Probe& a, const Probe& b,
                             const std::string& name) {
  obs::MetricRow row;
  add_hist_delta(a, b, name, row);
  return row.sum;
}

// --- small helpers ---------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// "p17", "cycle3": built by append, which GCC 12 does not misreport
/// under -Wrestrict as it does `"p" + std::to_string(i)`.
std::string indexed(const char* prefix, std::uint64_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;
constexpr double kMB = 1e6;

/// Resets the kernel's RSS high-water mark (VmHWM) to the current RSS.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM in MiB: the high-water RSS since the last reset_peak_rss(), or
/// since process start where the reset is not permitted.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct TreeUsage {
  std::uint64_t files = 0;
  std::uint64_t allocated_bytes = 0;
};

/// Regular files under `root` and the space they occupy (st_blocks).
TreeUsage walk_tree(const fs::path& root) {
  TreeUsage u;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    struct stat st {};
    if (::lstat(entry.path().c_str(), &st) != 0 || !S_ISREG(st.st_mode))
      continue;
    ++u.files;
    u.allocated_bytes += static_cast<std::uint64_t>(st.st_blocks) * 512u;
  }
  return u;
}

std::string fs_type_name(const fs::path& dir) {
  struct statfs sfs {};
  if (::statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

/// Removes `root`, one thread per top-level entry (the cluster's node
/// directories), since unlinking a few hundred thousand block files is
/// most of a cycle's clean-up time.
void remove_tree(const fs::path& root) {
  std::vector<std::thread> threads;
  for (const auto& entry : fs::directory_iterator(root))
    threads.emplace_back([path = entry.path()] { fs::remove_all(path); });
  for (auto& t : threads) t.join();
  fs::remove_all(root);
}

/// Flushes the filesystem holding `dir`, so writeback and discards left
/// by one cycle's clean-up do not land inside the next cycle's timings.
void settle_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// --- host-noise sentinels --------------------------------------------------

std::atomic<std::uint64_t> cpu_loop_sink{0};

/// A fixed pure-CPU loop; its time moves only when the host is disturbed.
double cpu_loop_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) x = mix64(x + i);
  const auto t1 = Clock::now();
  cpu_loop_sink.store(x, std::memory_order_relaxed);
  return ms_between(t0, t1);
}

/// A fixed create/write/unlink loop on the archive's filesystem.
double fs_loop_ms(const fs::path& dir) {
  fs::create_directories(dir);
  const std::vector<char> block(4096, 'x');
  const auto t0 = Clock::now();
  for (int i = 0; i < 500; ++i) {
    std::ofstream(dir / indexed("s", i), std::ios::binary)
        .write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  for (int i = 0; i < 500; ++i) fs::remove(dir / indexed("s", i));
  const auto t1 = Clock::now();
  fs::remove(dir);
  return ms_between(t0, t1);
}

// --- measurement accumulators ----------------------------------------------

struct OpRecord {
  double ms = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t ring_start_us = 0;  // op start on the trace ring's clock
};

/// What one cycle measured.
struct Cycle {
  std::size_t puts_end = 0, gets_end = 0;  // sample counts after the cycle
  std::uint64_t put_bytes = 0, get_bytes = 0, rebuilt_bytes = 0;
  double put_wall_s = 0, get_wall_s = 0, rebuild_wall_s = 0;
  std::vector<double> opens_s;
  double setup_s = 0, space_amp = 0;
  /// Process high-water RSS of the cycle (VmHWM, reset at cycle start).
  double peak_rss_mib = 0;
};

/// End-to-end results of one half (untraced or traced) of a run.
struct Results {
  std::vector<OpRecord> puts, gets;
  std::vector<Cycle> cycles;
  double measured_s = 0;

  std::uint64_t attempted = 0, failed = 0;
  /// Ops that failed without returning wrong data (busy, timeout, a
  /// dropped connection): counted in `failed`, reported on stderr.
  std::vector<std::string> failures;
  /// Correctness failures (mismatch, unrecovered block, fingerprint,
  /// reconciliation); any makes the run incorrect.
  std::vector<std::string> problems;
};

/// Per-layer accumulators of the traced half.
struct Layers {
  std::vector<double> transport_put_ms, transport_get_ms;
  double exec_busy_us = 0, exec_window_us = 0;
  std::uint64_t opens = 0, sidecar_hits = 0;
  // GET/PUT phases (serve and degraded restore)
  double user_bytes = 0;
  std::uint64_t ops = 0, syscalls = 0, ctx_switches = 0;
  double user_s = 0, sys_s = 0;
  std::uint64_t encode_us = 0, put_user_bytes = 0;
  std::uint64_t prefetch_issued = 0, prefetch_hit = 0, prefetch_wasted = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t serve_data_blocks = 0, serve_put_blocks = 0;
  TallyCounts store;
  // repairs (degraded restore and rebuild)
  std::uint64_t repair_us = 0, repair_steps = 0;
  std::vector<double> rebuild_waves, rebuild_steps, rebuild_rounds;
  std::uint64_t survivor_read_bytes = 0, rebuilt_bytes = 0;
  // whole cycles
  obs::MetricRow queue_wait;
  std::uint64_t flush_ns = 0, rejected = 0;
  std::vector<double> files_per_user_mib;
};

/// The daemon's "net.request" spans of one phase, read from the global
/// ring (enabled at the phase start). Client ops join them through their
/// shared AEC2 trace id: transport = client time − Σ executor time of the
/// op's frames.
class PhaseTrace {
 public:
  PhaseTrace() {
    obs::TraceRing& ring = obs::TraceRing::global();
    const std::uint64_t now = ring.now_us();
    const std::vector<obs::TraceEvent> events = ring.events();
    // Once the ring has wrapped, only the window after its oldest retained
    // event is complete.
    if (ring.dropped() > 0) {
      lo_ = ~std::uint64_t{0};
      for (const auto& ev : events) lo_ = std::min(lo_, ev.start_us + ev.dur_us);
    }
    for (const auto& ev : events) {
      if (std::strcmp(ev.name, "net.request") != 0) continue;
      const std::uint64_t end = ev.start_us + ev.dur_us;
      if (end > lo_)
        busy_us += static_cast<double>(end - std::max(ev.start_us, lo_));
      server_us_[ev.req] += ev.dur_us;
    }
    if (now > lo_) window_us = static_cast<double>(now - lo_);
  }

  /// Appends the transport time of every op from `first` on whose spans
  /// all fall inside the retained window.
  void add_transport(const std::vector<OpRecord>& ops, std::size_t first,
                     std::vector<double>& out) const {
    for (std::size_t i = first; i < ops.size(); ++i) {
      const OpRecord& op = ops[i];
      if (op.trace_id == 0 || op.ring_start_us <= lo_ + 1000) continue;
      const auto it = server_us_.find(op.trace_id);
      if (it == server_us_.end()) continue;
      out.push_back(op.ms - static_cast<double>(it->second) / 1000.0);
    }
  }

  double busy_us = 0;    // executor time inside the window
  double window_us = 0;  // the window the spans cover

 private:
  std::uint64_t lo_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> server_us_;
};

std::vector<double> latencies(const std::vector<OpRecord>& ops,
                              std::size_t first = 0) {
  std::vector<double> out;
  for (std::size_t i = first; i < ops.size(); ++i) out.push_back(ops[i].ms);
  return out;
}

// --- the run ---------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path root;
  std::string git_sha = "unavailable";
  std::string src_digest = "unavailable";
};

class Bench {
 public:
  Bench(const Options& opt, std::shared_ptr<Engine> engine)
      : opt_(opt), w_(*opt.workload), engine_(std::move(engine)) {}

  /// Runs cycles until `budget_s` of measured time has accumulated over
  /// at least `min_cycles` cycles.
  void run_half(bool traced, double budget_s, std::size_t min_cycles,
                Clock::time_point started, Results& res, Layers* layers) {
    for (;;) {
      run_cycle(traced, res, layers);
      if (res.measured_s >= budget_s && res.cycles.size() >= min_cycles)
        break;
      if (!res.problems.empty()) break;  // incorrect: nothing to measure
      if (seconds_between(started, Clock::now()) > kWallCapS) {
        std::fprintf(stderr,
                     "archbench: wall-clock cap reached after %zu cycles "
                     "(%zu PUT / %zu GET samples)\n",
                     res.cycles.size(), res.puts.size(), res.gets.size());
        break;
      }
    }
  }

 private:
  static constexpr std::uint64_t kWrittenIdBase = 1ull << 32;

  static std::string preload_name(std::size_t i) {
    return indexed("p", i);
  }

  std::uint64_t stream_of(std::uint64_t file_id) const {
    return derive(opt_.seed, cycle_, file_id);
  }

  std::unique_ptr<net::Client> connect(bool traced) const {
    net::ClientConfig cc;
    cc.port = port_;
    cc.trace = traced;
    return std::make_unique<net::Client>(cc);
  }

  void run_cycle(bool traced, Results& res, Layers* layers) {
    ++cycle_;
    Cycle& cyc = res.cycles.emplace_back();
    const std::size_t first_put = res.puts.size();
    const std::size_t first_get = res.gets.size();
    const fs::path root = opt_.root / indexed("cycle", cycle_);
    fs::remove_all(root);
    reset_peak_rss();

    // Set-up: create the archive and preload it. Closing makes the preload
    // durable and leaves the availability sidecar for the cold open.
    const auto s0 = Clock::now();
    {
      auto archive = tools::Archive::create(root, kCodec, w_.block_size,
                                            engine_, store_spec(traced));
      Bytes content(w_.file_bytes);
      for (std::size_t i = 0; i < w_.preload_files; ++i) {
        fill_content(content.data(), content.size(), stream_of(i));
        archive->add_file(preload_name(i), content);
      }
    }
    cyc.setup_s = seconds_between(s0, Clock::now());
    const Probe cycle_start = Probe::take();

    // Cold opens: each close leaves a fresh sidecar for the next open; the
    // last open is the one served.
    std::unique_ptr<tools::Archive> archive;
    double open_s = 0;
    std::string opens_text;
    for (std::size_t i = 0; i < kOpensPerCycle; ++i) {
      archive.reset();
      const auto o0 = Clock::now();
      archive = tools::Archive::open(root, engine_);
      const double s = seconds_between(o0, Clock::now());
      cyc.opens_s.push_back(s);
      open_s += s;
      char buf[16];
      std::snprintf(buf, sizeof buf, "%s%.3f", i ? "/" : "", s);
      opens_text += buf;
      if (layers) {
        ++layers->opens;
        if (archive->opened_from_sidecar()) ++layers->sidecar_hits;
      }
    }
    res.measured_s += open_s;

    std::uint64_t acked = 0;
    const auto open_end = Clock::now();
    auto loss_end = open_end;
    {
      net::Server server(archive.get());
      port_ = server.port();
      std::thread loop([&server] { server.run(); });
      try {
        auto writer = connect(traced);
        std::vector<std::unique_ptr<net::Client>> readers;
        for (std::size_t r = 0; r < kReaders; ++r)
          readers.push_back(connect(traced));
        node_loss_step(*archive, *writer, readers, traced, res, layers);
        loss_end = Clock::now();
        acked = serve_step(*writer, readers, traced, res, layers);
      } catch (const std::exception& e) {
        ++res.attempted;
        ++res.failed;
        res.failures.push_back(std::string("cycle aborted: ") + e.what());
      }
      server.shutdown();
      loop.join();
    }
    const auto serve_end = Clock::now();
    archive.reset();
    const auto close_end = Clock::now();

    cyc.peak_rss_mib = peak_rss_mib();
    cyc.puts_end = res.puts.size();
    cyc.gets_end = res.gets.size();
    const Probe cycle_end = Probe::take();
    const TreeUsage usage = walk_tree(root);
    const double user_bytes = static_cast<double>(
        w_.preload_files * w_.file_bytes + acked);
    cyc.space_amp = ratio(static_cast<double>(usage.allocated_bytes), user_bytes);
    if (layers) {
      add_hist_delta(cycle_start, cycle_end, "pool.queue_wait_us",
                     layers->queue_wait);
      layers->flush_ns += (cycle_end.store - cycle_start.store).flush_ns;
      layers->rejected +=
          counter_delta(cycle_start, cycle_end, "net.req.rejected");
      layers->files_per_user_mib.push_back(
          ratio(static_cast<double>(usage.files), user_bytes / kMiB));
    }
    remove_tree(root);
    settle_filesystem(opt_.root);
    std::fprintf(stderr,
                 "archbench: cycle %llu%s: setup %.3f s, opens %s s, "
                 "node loss %.3f s, serve %.3f s, close %.3f s, "
                 "cleanup %.3f s, peak rss %.1f MiB, rebuild %.1f MB/s, "
                 "put p50/p99 %.3f/%.3f ms, get p50/p99 %.3f/%.3f ms\n",
                 static_cast<unsigned long long>(cycle_), traced ? " (traced)" : "",
                 cyc.setup_s, opens_text.c_str(),
                 seconds_between(open_end, loss_end),
                 seconds_between(loss_end, serve_end),
                 seconds_between(serve_end, close_end),
                 seconds_between(close_end, Clock::now()),
                 cyc.peak_rss_mib,
                 ratio(static_cast<double>(cyc.rebuilt_bytes) / kMB, cyc.rebuild_wall_s),
                 quantile(latencies(res.puts, first_put), 0.5),
                 quantile(latencies(res.puts, first_put), 0.99),
                 quantile(latencies(res.gets, first_get), 0.5),
                 quantile(latencies(res.gets, first_get), 0.99));
  }

  /// Fails the victim node, restores every file degraded (node-loss),
  /// rebuilds the node and checks its fingerprint against the bytes it
  /// held before the failure.
  void node_loss_step(tools::Archive& archive, net::Client& admin,
                      std::vector<std::unique_ptr<net::Client>>& readers,
                      bool traced, Results& res, Layers* layers) {
    cluster::ClusterStore* cluster = archive.cluster();
    AEC_CHECK_MSG(cluster != nullptr, "archive store is not a cluster");
    const auto victim =
        static_cast<std::uint32_t>(derive(opt_.seed, cycle_, 0xF00D) % kNodes);
    const auto before = cluster->fingerprint(victim);

    ++res.attempted;
    admin.node_fail(victim);

    if (w_.degraded_restore) {
      std::vector<std::size_t> order(w_.preload_files);
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng rng{derive(opt_.seed, cycle_, 0x5E1EC7)};
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
      const Probe p0 = Probe::take();
      const std::size_t first_get = res.gets.size();
      if (traced) obs::TraceRing::global().enable();
      const auto t0 = Clock::now();
      run_readers(readers, traced, res,
                  [&](std::size_t r, std::size_t n, Rng&) {
                    const std::size_t pos = r + n * kReaders;
                    return pos < order.size()
                               ? std::optional<std::size_t>(order[pos])
                               : std::nullopt;
                  });
      const double wall = seconds_between(t0, Clock::now());
      res.cycles.back().get_wall_s += wall;
      res.measured_s += wall;
      if (layers) {
        add_phase_trace(res.gets, first_get, layers->transport_get_ms,
                        *layers);
        obs::TraceRing::global().disable();
        const Probe p1 = Probe::take();
        add_io_phase(p0, p1, res.gets.size() - first_get, *layers);
        layers->repair_us += hist_sum_delta(p0, p1, "repair.wave_us");
        layers->repair_steps += counter_delta(p0, p1, "repair.steps");
      }
    }

    const Probe p0 = Probe::take();
    const std::vector<cluster::NodeTraffic> traffic0 = cluster->traffic();
    if (traced) {
      std::lock_guard lock(store_tally().keys_mu);
      store_tally().captured.clear();
      store_tally().capture = true;
    }
    ++res.attempted;
    const auto t0 = Clock::now();
    const net::RebuildResult rebuilt = admin.node_rebuild(victim);
    const double wall = seconds_between(t0, Clock::now());
    store_tally().capture = false;
    const Probe p1 = Probe::take();
    const std::vector<cluster::NodeTraffic> traffic1 = cluster->traffic();
    const std::uint64_t bytes = rebuilt.blocks_repaired * w_.block_size;
    res.cycles.back().rebuilt_bytes += bytes;
    res.cycles.back().rebuild_wall_s += wall;
    res.measured_s += wall;
    if (rebuilt.unrecovered != 0) {
      ++res.failed;
      res.problems.push_back("rebuild left " +
                             std::to_string(rebuilt.unrecovered) +
                             " block(s) unrecovered");
    }
    if (cluster->fingerprint(victim) != before) {
      ++res.failed;
      res.problems.push_back("node " + std::to_string(victim) +
                             " fingerprint differs after rebuild");
    }

    if (layers) {
      layers->repair_us += hist_sum_delta(p0, p1, "repair.wave_us");
      const std::uint64_t steps = counter_delta(p0, p1, "repair.steps");
      layers->repair_steps += steps;
      layers->rebuild_steps.push_back(static_cast<double>(steps));
      layers->rebuild_waves.push_back(
          static_cast<double>(counter_delta(p0, p1, "repair.waves")));
      layers->rebuild_rounds.push_back(rebuilt.rounds);
      for (std::uint32_t n = 0; n < kNodes; ++n)
        if (n != victim)
          layers->survivor_read_bytes +=
              traffic1[n].bytes_read - traffic0[n].bytes_read;
      layers->rebuilt_bytes += bytes;
      // Reconciliation: the rebuild wrote every key the victim held.
      std::lock_guard lock(store_tally().keys_mu);
      std::size_t uncovered = 0;
      for (const auto& entry : before)
        if (!store_tally().captured.contains(entry.first)) ++uncovered;
      if (uncovered != 0)
        res.problems.push_back(
            "reconciliation: the rebuild wrote no block for " +
            std::to_string(uncovered) + " of the victim's " +
            std::to_string(before.size()) + " keys");
    }
  }

  /// Closed-loop writer until it has PUT puts_per_cycle fresh files, then
  /// (unless the workload's GETs are the degraded restore) the two
  /// closed-loop readers until they have GOT gets_per_cycle random
  /// preloaded files. The writer and the readers take turns rather than
  /// overlap: on the daemon's serial executor an overlapping GET's latency
  /// is set by whether it lands behind a PUT chunk, and its median then
  /// sits between the two modes. Returns the acknowledged bytes.
  std::uint64_t serve_step(net::Client& writer,
                           std::vector<std::unique_ptr<net::Client>>& readers,
                           bool traced, Results& res, Layers* layers) {
    const Probe p0 = Probe::take();
    const std::size_t first_put = res.puts.size();
    const std::size_t first_get = res.gets.size();
    if (traced) obs::TraceRing::global().enable();

    std::uint64_t acked = 0, data_blocks = 0, attempted = 0, failed = 0;
    std::string problem, failure;
    std::vector<OpRecord> puts;
    const auto t0 = Clock::now();
    Bytes content(w_.file_bytes);
    for (std::size_t i = 0; i < w_.puts_per_cycle; ++i) {
      fill_content(content.data(), content.size(),
                   stream_of(kWrittenIdBase + i));
      ++attempted;
      OpRecord op;
      if (traced) op.ring_start_us = obs::TraceRing::global().now_us();
      const auto a = Clock::now();
      try {
        const net::PutResult r = writer.put_bytes(indexed("w", i), content);
        op.ms = ms_between(a, Clock::now());
        op.trace_id = writer.last_trace_id();
        if (r.bytes != content.size()) {
          ++failed;
          problem = "PUT acknowledged " + std::to_string(r.bytes) + " bytes";
          continue;
        }
        acked += r.bytes;
        data_blocks += r.blocks;
        puts.push_back(op);
      } catch (const std::exception& e) {
        ++failed;
        failure = std::string("PUT failed: ") + e.what();
        break;  // the connection's framing state is unspecified now
      }
    }
    const double put_wall = seconds_between(t0, Clock::now());
    res.puts.insert(res.puts.end(), puts.begin(), puts.end());
    // The ring holds a bounded number of spans, so each turn is joined
    // with its own spans before the next turn starts.
    if (layers) add_phase_trace(res.puts, first_put, layers->transport_put_ms,
                                *layers);

    double get_wall = 0;
    if (!w_.degraded_restore) {
      if (traced) obs::TraceRing::global().enable();
      std::atomic<std::size_t> issued{0};
      const auto g0 = Clock::now();
      run_readers(readers, traced, res,
                  [&](std::size_t, std::size_t, Rng& rng)
                      -> std::optional<std::size_t> {
                    if (issued.fetch_add(1) >= w_.gets_per_cycle)
                      return std::nullopt;
                    return rng.below(w_.preload_files);
                  });
      get_wall = seconds_between(g0, Clock::now());
      res.cycles.back().get_wall_s += get_wall;
      if (layers) add_phase_trace(res.gets, first_get,
                                  layers->transport_get_ms, *layers);
    }
    if (traced) obs::TraceRing::global().disable();

    res.attempted += attempted;
    res.failed += failed;
    if (!problem.empty()) res.problems.push_back(problem);
    if (!failure.empty()) res.failures.push_back(failure);
    res.cycles.back().put_bytes += acked;
    res.cycles.back().put_wall_s += put_wall;
    res.measured_s += put_wall + get_wall;

    if (layers) {
      const Probe p1 = Probe::take();
      add_io_phase(p0, p1, puts.size() + (res.gets.size() - first_get),
                   *layers);
      layers->encode_us += hist_sum_delta(p0, p1, "encode.batch_us");
      layers->put_user_bytes += acked;
      // Reconciliation: a healthy AE(3,2,5) PUT stores exactly four
      // blocks per data block.
      const std::uint64_t stored = (p1.store - p0.store).put_blocks;
      layers->serve_data_blocks += data_blocks;
      layers->serve_put_blocks += stored;
      if (stored != kBlocksPerDataBlock * data_blocks)
        res.problems.push_back(
            "reconciliation: the serve phase stored " +
            std::to_string(stored) + " blocks for " +
            std::to_string(data_blocks) + " data blocks");
    }
    return acked;
  }

  /// Joins the ops of the phase that just ended, from `first` on, with the
  /// daemon's spans in the ring (enabled at the phase start).
  static void add_phase_trace(const std::vector<OpRecord>& ops,
                              std::size_t first,
                              std::vector<double>& transport, Layers& layers) {
    const PhaseTrace trace;
    trace.add_transport(ops, first, transport);
    layers.exec_busy_us += trace.busy_us;
    layers.exec_window_us += trace.window_us;
  }

  /// Accounting shared by the GET/PUT phases.
  void add_io_phase(const Probe& p0, const Probe& p1, std::size_t ops,
                    Layers& layers) const {
    layers.user_bytes +=
        static_cast<double>(counter_delta(p0, p1, "net.req.bytes_in") +
                            counter_delta(p0, p1, "net.req.bytes_out"));
    layers.ops += ops;
    layers.syscalls += p1.proc.syscalls - p0.proc.syscalls;
    layers.user_s += p1.proc.user_s - p0.proc.user_s;
    layers.sys_s += p1.proc.sys_s - p0.proc.sys_s;
    layers.ctx_switches += p1.proc.ctx_switches - p0.proc.ctx_switches;
    layers.prefetch_issued += counter_delta(p0, p1, "read.prefetch.issued");
    layers.prefetch_hit += counter_delta(p0, p1, "read.prefetch.hit");
    layers.prefetch_wasted += counter_delta(p0, p1, "read.prefetch.wasted");
    layers.cache_hits += counter_delta(p0, p1, "store.sharded.cache_hits");
    layers.cache_misses += counter_delta(p0, p1, "store.sharded.cache_misses");
    const TallyCounts st = p1.store - p0.store;
    layers.store.put_calls += st.put_calls;
    layers.store.put_blocks += st.put_blocks;
    layers.store.put_ns += st.put_ns;
    layers.store.get_calls += st.get_calls;
    layers.store.get_blocks += st.get_blocks;
    layers.store.get_ns += st.get_ns;
    layers.store.flush_calls += st.flush_calls;
    layers.store.other_calls += st.other_calls;
  }

  /// Which preloaded file reader `r` GETs as its `n`-th request, or
  /// nullopt to stop; `rng` is the reader's own seeded stream.
  using NextFile = std::function<std::optional<std::size_t>(
      std::size_t r, std::size_t n, Rng& rng)>;

  /// One thread per reader connection, each GETting files as `next` hands
  /// them out and byte-comparing them with the source.
  void run_readers(std::vector<std::unique_ptr<net::Client>>& readers,
                   bool traced, Results& res, const NextFile& next) {
    struct ReaderOut {
      std::vector<OpRecord> ops;
      std::uint64_t bytes = 0, attempted = 0, failed = 0;
      std::vector<std::string> problems, failures;
    };
    std::vector<ReaderOut> outs(readers.size());
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < readers.size(); ++r) {
      threads.emplace_back([&, r] {
        ReaderOut& out = outs[r];
        Rng rng{derive(opt_.seed, cycle_, 0xBEE0 + r)};
        // Reused across chunks, so the check adds no allocation churn to
        // the process's memory high-water mark.
        Bytes scratch;
        for (std::size_t n = 0;; ++n) {
          const std::optional<std::size_t> file = next(r, n, rng);
          if (!file) break;
          ++out.attempted;
          OpRecord op;
          if (traced) op.ring_start_us = obs::TraceRing::global().now_us();
          const auto a = Clock::now();
          try {
            const std::uint64_t stream = stream_of(*file);
            std::size_t len = 0;
            bool same = true;
            readers[r]->get(preload_name(*file), [&](BytesView chunk) {
              same = same && len + chunk.size() <= w_.file_bytes &&
                     matches_content(chunk, len, stream, scratch);
              len += chunk.size();
            });
            op.ms = ms_between(a, Clock::now());
            op.trace_id = readers[r]->last_trace_id();
            if (len != w_.file_bytes || !same) {
              ++out.failed;
              out.problems.push_back("GET " + preload_name(*file) +
                                     " returned wrong bytes");
              continue;
            }
            out.bytes += len;
            out.ops.push_back(op);
          } catch (const std::exception& e) {
            ++out.failed;
            out.failures.push_back(std::string("GET failed: ") + e.what());
            readers[r] = connect(traced);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& out : outs) {
      res.gets.insert(res.gets.end(), out.ops.begin(), out.ops.end());
      res.cycles.back().get_bytes += out.bytes;
      res.attempted += out.attempted;
      res.failed += out.failed;
      for (auto& p : out.problems) res.problems.push_back(std::move(p));
      for (auto& f : out.failures) res.failures.push_back(std::move(f));
    }
  }

  const Options& opt_;
  const Workload& w_;
  std::shared_ptr<Engine> engine_;
  std::uint64_t cycle_ = 0;
  std::uint16_t port_ = 0;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};


/// Mean without the lowest and the highest value, once there are three or
/// more: the cold first cycle or one disturbed by the shared host drops
/// out, and the rest average over the host's slower and faster spells
/// where a median would snap to one of them.
double trimmed_mean(std::vector<double> v) {
  if (v.size() >= 3) {
    std::sort(v.begin(), v.end());
    v.erase(v.begin());
    v.pop_back();
  }
  return mean(v);
}

/// Trimmed mean over cycles of a per-cycle value.
double over_cycles(const Results& r,
                   const std::function<double(const Cycle&)>& f) {
  std::vector<double> v;
  for (const Cycle& c : r.cycles) v.push_back(f(c));
  return trimmed_mean(std::move(v));
}

/// Trimmed mean over groups of consecutive cycles of each group's
/// `q`-quantile latency. A group closes once it holds enough samples for
/// ten to lie beyond the quantile (20 for p50, 1000 for p99); a short
/// remainder joins the last group.
double latency_quantile(const std::vector<OpRecord>& ops, const Results& r,
                        std::size_t Cycle::*end, double q) {
  const auto min_group = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end)
  std::size_t begin = 0;
  for (const Cycle& c : r.cycles) {
    if (c.*end - begin < min_group) continue;
    groups.emplace_back(begin, c.*end);
    begin = c.*end;
  }
  if (begin < ops.size()) {
    if (groups.empty())
      groups.emplace_back(begin, ops.size());
    else
      groups.back().second = ops.size();
  }
  std::vector<double> per_group;
  for (const auto& [b, e] : groups) {
    std::vector<double> v;
    for (std::size_t i = b; i < e; ++i) v.push_back(ops[i].ms);
    per_group.push_back(quantile(std::move(v), q));
  }
  return trimmed_mean(std::move(per_group));
}

double open_s(const Results& r) {
  return over_cycles(r, [](const Cycle& c) { return mean(c.opens_s); });
}

/// The end-to-end metrics, in BENCHMARK.json order. Rates and latencies
/// are trimmed means over cycles, so one cycle disturbed by the shared host
/// does not move them.
std::vector<Metric> end_to_end(const Results& r) {
  const auto rate = [](std::uint64_t bytes, double wall) {
    return ratio(static_cast<double>(bytes) / kMB, wall);
  };
  return {
      {"put_mb_s", over_cycles(r, [&](const Cycle& c) { return rate(c.put_bytes, c.put_wall_s); }), "MB/s"},
      {"put_p50_ms", latency_quantile(r.puts, r, &Cycle::puts_end, 0.50), "ms"},
      {"get_mb_s", over_cycles(r, [&](const Cycle& c) { return rate(c.get_bytes, c.get_wall_s); }), "MB/s"},
      {"get_p50_ms", latency_quantile(r.gets, r, &Cycle::gets_end, 0.50), "ms"},
      {"rebuild_mb_s", over_cycles(r, [&](const Cycle& c) { return rate(c.rebuilt_bytes, c.rebuild_wall_s); }), "MB/s"},
      {"setup_s", over_cycles(r, [](const Cycle& c) { return c.setup_s; }), "s"},
      {"peak_rss_mib", r.cycles.empty() ? 0.0 : r.cycles.front().peak_rss_mib, "MiB"},
      {"space_amp", over_cycles(r, [](const Cycle& c) { return c.space_amp; }), "ratio"},
      {"success_rate", 1.0 - ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio"},
  };
}

struct Sentinels {
  double cpu_before = 0, cpu_after = 0, fs_before = 0, fs_after = 0;
};

std::vector<Metric> per_layer(const Results& untraced, const Results& traced,
                              const Layers& l, const Sentinels& s,
                              std::size_t block_size) {
  const double user_mib = l.user_bytes / kMiB;
  const double user_gib = l.user_bytes / kGiB;
  const double repaired_mib =
      static_cast<double>(l.repair_steps * block_size) / kMiB;
  std::vector<Metric> m = {
      {"net.transport_ms.put", median(l.transport_put_ms), "ms"},
      {"net.transport_ms.get", median(l.transport_get_ms), "ms"},
      {"net.executor_busy", ratio(l.exec_busy_us, l.exec_window_us), "ratio"},
      {"net.syscalls_per_mib", ratio(static_cast<double>(l.syscalls), user_mib), "1/MiB"},
      {"net.rejected", static_cast<double>(l.rejected), "count"},
      {"archive.sidecar_hit", ratio(static_cast<double>(l.sidecar_hits), static_cast<double>(l.opens)), "ratio"},
      {"archive.open_s", open_s(traced), "s"},
      {"engine.encode_ms_per_mib", ratio(static_cast<double>(l.encode_us) / 1000.0, static_cast<double>(l.put_user_bytes) / kMiB), "ms/MiB"},
      {"engine.repair_ms_per_mib", ratio(static_cast<double>(l.repair_us) / 1000.0, repaired_mib), "ms/MiB"},
      {"engine.repair_waves", median(l.rebuild_waves), "count"},
      {"engine.repair_steps", median(l.rebuild_steps), "count"},
      {"pool.queue_wait_us_p50", l.queue_wait.quantile(0.5), "us"},
      {"read.prefetch_hit_ratio", ratio(static_cast<double>(l.prefetch_hit), static_cast<double>(l.prefetch_issued)), "ratio"},
      {"read.prefetch_wasted", ratio(static_cast<double>(l.prefetch_wasted), static_cast<double>(l.prefetch_issued)), "ratio"},
      {"store.put_us_per_block", ratio(static_cast<double>(l.store.put_ns) / 1000.0, static_cast<double>(l.store.put_blocks)), "us"},
      {"store.get_us_per_block", ratio(static_cast<double>(l.store.get_ns) / 1000.0, static_cast<double>(l.store.get_blocks)), "us"},
      {"store.calls_per_op", ratio(static_cast<double>(l.store.calls()), static_cast<double>(l.ops)), "count"},
      {"store.flush_ms", ratio(static_cast<double>(l.flush_ns) / 1e6, static_cast<double>(traced.cycles.size())), "ms"},
      {"store.blocks_written_per_data_block", ratio(static_cast<double>(l.serve_put_blocks), static_cast<double>(l.serve_data_blocks)), "ratio"},
      {"store.files_per_user_mib", median(l.files_per_user_mib), "1/MiB"},
      {"store.cache_hit_ratio", ratio(static_cast<double>(l.cache_hits), static_cast<double>(l.cache_hits + l.cache_misses)), "ratio"},
      {"cluster.repair_read_amp", ratio(static_cast<double>(l.survivor_read_bytes), static_cast<double>(l.rebuilt_bytes)), "ratio"},
      {"repair.rounds", median(l.rebuild_rounds), "count"},
      {"proc.user_s_per_gib", ratio(l.user_s, user_gib), "s/GiB"},
      {"proc.sys_s_per_gib", ratio(l.sys_s, user_gib), "s/GiB"},
      {"proc.ctx_switches_per_op", ratio(static_cast<double>(l.ctx_switches), static_cast<double>(l.ops)), "count"},
      {"host.cpu_loop_ms.before", s.cpu_before, "ms"},
      {"host.cpu_loop_ms.after", s.cpu_after, "ms"},
      {"host.fs_loop_ms.before", s.fs_before, "ms"},
      {"host.fs_loop_ms.after", s.fs_after, "ms"},
  };
  const std::vector<Metric> base = end_to_end(untraced);
  const std::vector<Metric> with = end_to_end(traced);
  for (std::size_t i = 0; i < base.size(); ++i)
    m.push_back({"trace_overhead." + base[i].name,
                 with[i].value - base[i].value, base[i].unit});
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// The first few messages of a kind on stderr, then how many were left out.
void print_some(const char* kind, const std::vector<std::string>& messages) {
  constexpr std::size_t kShown = 10;
  for (std::size_t i = 0; i < messages.size() && i < kShown; ++i)
    std::fprintf(stderr, "archbench: %s: %s\n", kind, messages[i].c_str());
  if (messages.size() > kShown)
    std::fprintf(stderr, "archbench: %s: ... and %zu more\n", kind,
                 messages.size() - kShown);
}

int usage() {
  std::fprintf(stderr,
               "usage: archbench --workload mixed-small|stream-large|"
               "node-loss --seed N --seconds S --trace 0|1 --root DIR\n"
               "                 [--git-sha SHA] [--src-digest HEX]\n");
  return 2;
}

std::optional<std::uint64_t> parse_uint(const std::string& s) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  fs::create_directories(opt.root);
  register_timed_family();
  auto engine = Engine::with_threads(kEngineThreads);
  const auto started = Clock::now();

  Sentinels sent;
  sent.cpu_before = cpu_loop_ms();
  sent.fs_before = fs_loop_ms(opt.root / "sentinel");

  Bench bench(opt, engine);
  Results untraced, traced;
  Layers layers;
  if (opt.trace) {
    bench.run_half(false, opt.seconds / 2, 1, started, untraced, nullptr);
    bench.run_half(true, opt.seconds / 2, 1, started, traced, &layers);
  } else {
    bench.run_half(false, opt.seconds, kMinCycles, started, untraced, nullptr);
  }

  sent.cpu_after = cpu_loop_ms();
  sent.fs_after = fs_loop_ms(opt.root / "sentinel");

  for (const Results* r : {&untraced, &traced}) {
    print_some("failed op", r->failures);
    print_some("INCORRECT", r->problems);
  }
  const bool correct = untraced.problems.empty() && traced.problems.empty();
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;

  std::printf(
      "{\"provenance\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%ld,\"kernel\":%s,\"git_sha\":%s,"
      "\"src_digest\":%s,\"build_type\":%s,\"root_fs\":%s,"
      "\"engine_threads\":%zu,\"connections\":%zu,\"codec\":%s,"
      "\"store\":%s,\"cycles\":%zu,\"traced_cycles\":%zu,"
      "\"put_samples\":%zu,\"get_samples\":%zu,"
      "\"host_cpu_loop_ms\":[%s,%s],\"host_fs_loop_ms\":[%s,%s]}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN),
      json_string(selected_kernel_name()).c_str(),
      json_string(opt.git_sha).c_str(), json_string(opt.src_digest).c_str(),
      json_string(ARCHBENCH_BUILD_TYPE).c_str(),
      json_string(fs_type_name(opt.root)).c_str(), kEngineThreads,
      kConnections, json_string(kCodec).c_str(),
      json_string(store_spec(false)).c_str(), untraced.cycles.size(),
      traced.cycles.size(),
      untraced.puts.size(), untraced.gets.size(),
      json_number(sent.cpu_before).c_str(), json_number(sent.cpu_after).c_str(),
      json_number(sent.fs_before).c_str(), json_number(sent.fs_after).c_str());

  const std::vector<Metric> e2e = end_to_end(untraced);
  for (const auto& m : e2e)
    std::printf("%-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  // Shown but not in BENCHMARK.json: on a shared host these moved by more
  // than any bound the benchmark may set (tails 2x between periods).
  std::printf("%-28s %14.4f ms (%zu samples; not bounded)\n", "put_p99_ms",
              latency_quantile(untraced.puts, untraced, &Cycle::puts_end, 0.99),
              untraced.puts.size());
  std::printf("%-28s %14.4f ms (%zu samples; not bounded)\n", "get_p99_ms",
              latency_quantile(untraced.gets, untraced, &Cycle::gets_end, 0.99),
              untraced.gets.size());
  std::printf("%-28s %14.4f s (not bounded)\n", "open_s", open_s(untraced));
  std::printf("%-28s %14.4f ratio (%llu failed of %llu attempted)\n",
              "error_rate",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const std::vector<Metric> shown =
      opt.trace ? per_layer(untraced, traced, layers, sent, w.block_size) : e2e;
  if (opt.trace)
    for (const auto& m : shown)
      std::printf("%-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i) line += ',';
    line += json_string(shown[i].name) + ":{\"value\":" +
            json_number(shown[i].value) + ",\"unit\":" +
            json_string(shown[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  fs::remove_all(opt.root);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (opt.workload == nullptr) return usage();
    } else if (arg == "--seed") {
      const auto v = parse_uint(value);
      if (!v) return usage();
      opt.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = parse_uint(value);
      if (!v || *v == 0 || *v > 120) return usage();
      opt.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--root") {
      opt.root = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else if (arg == "--src-digest") {
      opt.src_digest = value;
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      opt.root.empty())
    return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archbench: fatal: %s\n", e.what());
    return 1;
  }
}
