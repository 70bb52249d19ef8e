// Repository benchmark driver (see BENCHMARK.json at the repository root).
//
//   otm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <file>] [--plant swap|drop]
//
// Runs one workload as a closed loop on a single thread and prints every
// metric by name, unit and denominator on stderr, then one JSON object as
// the last line of stdout. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer split. --plant injects a failure into the
// completion stream the checker sees (self-test of the fail accounting).
//
// Each layer is reached only through its public calls: proto::Endpoint,
// DpaAccelerator, MatchEngine, proto::packet_crc, trace::TraceReplayDriver
// and trace::TraceAnalyzer. Nothing inside src/ is instrumented; the traced
// run wraps each call in a span and splits Endpoint::progress by re-driving
// the same receive/message stream into a standalone DpaAccelerator and a
// standalone MatchEngine.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "baseline/list_matcher.hpp"
#include "core/engine.hpp"
#include "dpa/accelerator.hpp"
#include "proto/endpoint.hpp"
#include "proto/wire.hpp"
#include "rdma/fabric.hpp"
#include "trace/analyzer.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "util/args.hpp"

using namespace otm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Process start (static initialisation) and the first timed call, for the
/// report's "process start -> first timed call" line.
const Clock::time_point g_process_start = Clock::now();
double g_to_first_timed_s = -1.0;

void mark_timed_call() {
  if (g_to_first_timed_s < 0.0)
    g_to_first_timed_s = seconds_between(g_process_start, Clock::now());
}

/// Moves the (single) benchmark thread round-robin over the CPUs the
/// process may use. On a shared VM each virtual CPU drifts between fast and
/// slow spells of tens of seconds (neighbours on the host); spreading every
/// run over all of them averages those spells inside the run instead of
/// leaving them to decide whole runs. It moves only before a set-up, whose
/// warm-up refills the caches, and before a replay or analyzer call, which
/// dwarfs the refill: a move between two short sequences would put the
/// cold-cache sequence into the latency tail.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }

  /// Move to the next CPU now.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

CpuRotation g_cpus;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double rss_now_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: one per public call the benchmark makes, recorded only in the
// traced run. Totals and self times (duration minus children) accumulate
// for every span; the first kKeptSpans records stay in memory and are
// written out when the run ends.

enum class SpanId : std::uint8_t {
  kSeq,
  kProtoPost,
  kProtoSend,
  kProtoProgress,
  kDpaPost,
  kDpaDeliver,
  kCorePost,
  kCoreProcess,
  kReplayBuild,
  kReplayRun,
  kAnalyze,
  kCount,
};

constexpr const char* kSpanNames[] = {
    "seq",           "proto.post_receive", "proto.send",
    "proto.progress", "dpa.post_receive",  "dpa.deliver",
    "core.post_receive", "core.process",   "trace.replay_build",
    "trace.replay_run",  "trace.analyze",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanId::kCount));

class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanLog(std::size_t keep) : keep_(keep), epoch_(Clock::now()) {
    kept_.reserve(keep);
  }

  void begin(SpanId id, std::uint64_t seq) {
    const std::uint64_t parent = open_.empty() ? 0 : open_.back().uid;
    open_.push_back({id, ++next_uid_, parent, seq, Clock::now(), 0});
  }

  void end() {
    const auto t1 = Clock::now();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t dur = ns_between(o.start, t1);
    Totals& t = totals_[static_cast<std::size_t>(o.id)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (kept_.size() < keep_)
      kept_.push_back({o.id, o.uid, o.parent, o.seq, ns_between(epoch_, o.start),
                       dur});
  }

  const Totals& totals(SpanId id) const {
    return totals_[static_cast<std::size_t>(id)];
  }

  /// Chrome trace-event JSON (loads in Perfetto); `args` carry the span
  /// id, its parent's id (0 = root) and the sequence (request) id.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Record& r = kept_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"seq\":%llu}}",
                   i == 0 ? "" : ",", kSpanNames[static_cast<std::size_t>(r.id)],
                   static_cast<double>(r.start_ns) / 1e3,
                   static_cast<double>(r.dur_ns) / 1e3,
                   static_cast<unsigned long long>(r.uid),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.seq));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanId id;
    std::uint64_t uid;
    std::uint64_t parent;
    std::uint64_t seq;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  struct Record {
    SpanId id;
    std::uint64_t uid;
    std::uint64_t parent;
    std::uint64_t seq;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  std::size_t keep_;
  Clock::time_point epoch_;
  std::uint64_t next_uid_ = 0;
  std::vector<Open> open_;
  std::vector<Record> kept_;
  Totals totals_[static_cast<std::size_t>(SpanId::kCount)] = {};
};

constexpr std::size_t kKeptSpans = std::size_t{1} << 16;

/// Records one span when `log` is non-null; a no-op in untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanId id, std::uint64_t seq) : log_(log) {
    if (log_ != nullptr) log_->begin(id, seq);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// ---------------------------------------------------------------------------
// Report: every metric with its unit and the denominator it was divided by.

struct Metric {
  double value = 0.0;
  std::string basis;  ///< denominator / provenance, printed beside the value
};

/// Metric names and units; BENCHMARK.json lists the same pairs.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"msgs_per_s", "msg/s"},
    {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},
    {"modeled_msgs_per_s", "msg/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ok_ratio", "1"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.match_attempts_per_msg", "1/msg"},
    {"core.index_searches_per_msg", "1/msg"},
    {"core.conflicts_per_msg", "1/msg"},
    {"core.fast_path_per_msg", "1/msg"},
    {"core.slow_path_per_msg", "1/msg"},
    {"core.block_fill", "1"},
    {"core.post_fallbacks", "count"},
    {"core.process_ns_per_msg", "ns/msg"},
    {"core.post_ns", "ns/call"},
    {"dpa.post_receive_ns", "ns/call"},
    {"dpa.deliver_ns_per_msg", "ns/msg"},
    {"dpa.deliver_self_ns_per_msg", "ns/msg"},
    {"dpa.busy_cycles_per_msg", "cycles/msg"},
    {"dpa.host_match_cycles_per_msg", "cycles/msg"},
    {"dpa.memory_used_bytes", "B"},
    {"dpa.watchdog_demotions", "count"},
    {"proto.send_ns", "ns/call"},
    {"proto.post_receive_ns", "ns/call"},
    {"proto.progress_ns_per_msg", "ns/msg"},
    {"proto.progress_self_ns_per_msg", "ns/msg"},
    {"proto.crc_ns_per_kib", "ns/KiB"},
    {"proto.crc_bytes_per_msg", "B/msg"},
    {"proto.msgs_per_merged_packet", "msg/packet"},
    {"proto.flushes_by_size", "1/packet"},
    {"proto.flushes_by_deadline", "1/packet"},
    {"proto.flushes_by_doorbell", "1/packet"},
    {"proto.flushes_by_order", "1/packet"},
    {"proto.retransmits_per_msg", "1/msg"},
    {"proto.acked_packets_per_msg", "1/msg"},
    {"proto.dup_discards_per_msg", "1/msg"},
    {"proto.useful_packet_ratio", "1"},
    {"proto.backpressure_stalls", "1/msg"},
    {"proto.rnr_failures", "1/msg"},
    {"rdma.cqes_per_msg", "1/msg"},
    {"rdma.doorbells_per_msg", "1/msg"},
    {"mpi.scheduler_steps_per_msg", "1/msg"},
    {"mpi.events_per_msg", "1/msg"},
    {"trace.replay_run_s", "s"},
    {"trace.queue_depth_avg", "entries"},
    {"trace.queue_depth_max", "entries"},
    {"trace.analyze_s", "s"},
    {"trace.analyzer_avg_queue_depth", "entries"},
    {"trace.analyzer_max_depth", "entries"},
    {"mem.rss_after_setup_mb", "MiB"},
    {"baseline.oracle_share", "1"},
    {"baseline.list_recompute_s", "s"},
    {"bench.msgs_per_s_untraced", "msg/s"},
    {"bench.msgs_per_s_traced", "msg/s"},
    {"bench.trace_overhead", "1"},
    {"bench.loop_self_ns_per_msg", "ns/msg"},
    {"bench.fail_ratio", "1"},
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  ///< run-internal determinism / cross-checks held
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, std::string basis) {
    metrics[name] = {value, std::move(basis)};
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
  void inconsistent(std::string why) {
    consistent = false;
    notes.push_back("INCONSISTENT: " + std::move(why));
  }
};

std::string per(double n, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "per %s, over %.0f", what, n);
  return buf;
}

double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string rate_basis(double msgs, double secs) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.0f msgs / %.3f s", msgs, secs);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_out;
  std::string plant;  ///< "", "swap" or "drop"
};

// ---------------------------------------------------------------------------
// Pinned configuration. Every value a workload depends on is written out
// here, so a changed library default cannot shift a number silently. The
// cost table (CostTable::dpa) is the model itself and is shared with the
// fig8/replay benches; the self-test checks both sides report the same
// modeled rate.

DpaConfig pinned_dpa() {
  DpaConfig d;
  d.execution_units = 16;
  d.max_threads = 256;
  d.clock_ghz = 1.5;
  d.costs = CostTable::dpa();
  d.cqe_interval = 80;
  d.merged_sub_interval = 15;
  d.lane_cqe_batch_interval = 20;
  d.memory_budget_bytes = 3u * 1024u * 1024u;
  d.watchdog.enabled = false;
  d.watchdog.pressure_streak = 4;
  d.watchdog.stall_cycles = 0;
  d.watchdog.stall_streak = 2;
  d.watchdog.demote_on_memory_exhaustion = true;
  d.watchdog.healthy_window = 16;
  return d;
}

/// Fig. 8 Sec. VI receiver: 1024 in-flight receives, hash tables twice that
/// size, 32 DPA threads, early booking check off (lockstep replay must show
/// the paper's conflicts), fast path on.
MatchConfig pinned_fig8_match() {
  MatchConfig m;
  m.bins = 2048;
  m.block_size = 32;
  m.max_receives = 1024;
  m.max_unexpected = 8 * 1024;
  m.use_inline_hashes = true;
  m.early_booking_check = false;
  m.lazy_removal = true;
  m.enable_fast_path = true;
  m.assume_no_wildcards = false;
  m.allow_overtaking = false;
  m.shards = 1;
  return m;
}

/// The sender's matcher only ever handles the sequence ack.
MatchConfig pinned_ack_match() {
  MatchConfig m = pinned_fig8_match();
  m.bins = 16;
  m.block_size = 1;
  m.max_receives = 8;
  m.max_unexpected = 8;
  m.early_booking_check = true;
  return m;
}

proto::EndpointConfig pinned_endpoint() {
  proto::EndpointConfig e;
  e.eager_threshold = 1024;
  e.bounce_count = 2048;
  e.cq_depth = 4096;
  e.send_overhead_ns = 80.0;
  e.send_post_ns = 30.0;
  e.rts_inline_data = false;
  e.ingress_lanes = 1;
  auto& r = e.reliability;
  r.mode = proto::ReliabilityConfig::Mode::kAuto;  // clean fabric: inactive
  r.rto_ns = 20'000;
  r.rto_backoff = 2.0;
  r.rto_max_ns = 500'000;
  r.retry_budget = 16;
  r.rnr_backoff_ns = 2'000;
  r.rnr_backoff_cap = 8;
  r.window_limit = 256;
  r.reorder_stash_cap = 64;
  r.progress_tick_ns = 100;
  e.recovery.enabled = false;
  auto& c = e.coalescing;
  c.enabled = false;
  c.max_bytes = 0;
  c.max_messages = 16;
  c.deadline_ns = 0;
  c.eligible_bytes = 64;
  c.tag_classes = 1;
  c.pack_ns = 4.0;
  c.unpack_ns_per_msg = 10.0;
  return e;
}

rdma::FabricConfig pinned_fabric() {
  rdma::FabricConfig f;
  f.wire_latency_ns = 600.0;
  f.bandwidth_bytes_per_ns = 50.0;
  f.pcie_latency_ns = 300.0;
  f.host_copy_bytes_per_ns = 20.0;
  f.fault.enabled = false;  // no other fault field is read while disabled
  return f;
}

// ---------------------------------------------------------------------------
// Sequence workloads: pingpong_wc and storm_8b_coalesced. One sequence posts
// k receives, sends k stamped 8 B messages, drains the receiver, and closes
// with an ack back to the sender (the fig8 ping-pong protocol).

constexpr Tag kAckTag = 30000;
constexpr std::uint32_t kPayloadBytes = 8;
/// fig8_message_rate's repetition count: the modeled rate is taken over
/// exactly this many timed sequences so it is bit-identical across runs.
constexpr unsigned kModeledWindow = 500;
constexpr unsigned kSetups = 5;  ///< set-ups per run (median reported)
/// Latency samples held without reallocating: above the sequences a 60 s
/// pingpong run completes.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 21;

struct SeqWorkload {
  bool storm = false;
  unsigned k = 0;
  unsigned warmup = 0;
  MatchConfig recv_match;
  MatchConfig send_match;
  proto::EndpointConfig recv_ep;
  proto::EndpointConfig send_ep;
  DpaConfig dpa;
  rdma::FabricConfig fabric;
  std::vector<Tag> recv_tag;       ///< tag of receive (cookie) c
  std::vector<Tag> send_tag;       ///< tag of the j-th send
  std::vector<std::uint32_t> dest; ///< receive the j-th send must complete
};

/// fig8 WC-FP: k=100, every receive and message on (source 0, tag 0), so
/// 96 of 100 messages conflict and resolve on the fast path. No randomness:
/// the seed does not change the inputs.
SeqWorkload make_pingpong() {
  SeqWorkload w;
  w.k = 100;
  w.warmup = 100;  // the FIFO bounce pool (2048 buffers) turns over ~5 times
  w.recv_match = pinned_fig8_match();
  w.send_match = pinned_ack_match();
  w.recv_ep = pinned_endpoint();
  w.send_ep = pinned_endpoint();
  w.dpa = pinned_dpa();
  w.fabric = pinned_fabric();
  w.recv_tag.assign(w.k, 0);
  w.send_tag.assign(w.k, 0);
  for (unsigned j = 0; j < w.k; ++j) w.dest.push_back(j);
  return w;
}

/// fig8's storm_8B_coalesced (bench/pingpong_common.cpp run_small_storm):
/// 4096 distinct-tag eager messages, the sender packs up to 32 per kMerged
/// packet. Receive c carries tag c; the seed permutes the send order (seed
/// 0 keeps fig8's identity order).
SeqWorkload make_storm(std::uint64_t seed) {
  SeqWorkload w;
  w.storm = true;
  w.k = 4096;
  w.warmup = 64;  // 128 merged packets each: one turn of the 8192-buffer pool
  w.recv_match = pinned_fig8_match();
  w.recv_match.max_receives = 2 * 4096;
  w.recv_match.max_unexpected = 8 * 1024;
  w.send_match = pinned_ack_match();
  w.recv_ep = pinned_endpoint();
  w.recv_ep.eager_threshold = 4096;
  w.recv_ep.bounce_count = 2 * 4096;
  w.recv_ep.cq_depth = 2 * 4096;
  w.send_ep = w.recv_ep;
  w.send_ep.coalescing.enabled = true;
  w.send_ep.coalescing.max_messages = 32;
  w.send_ep.coalescing.eligible_bytes = 64;
  w.dpa = pinned_dpa();
  w.fabric = pinned_fabric();
  for (unsigned c = 0; c < w.k; ++c) w.recv_tag.push_back(static_cast<Tag>(c));
  std::vector<std::uint32_t> order(w.k);
  for (unsigned j = 0; j < w.k; ++j) order[j] = j;
  if (seed != 0) {
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  for (const std::uint32_t t : order) {
    w.send_tag.push_back(static_cast<Tag>(t));
    w.dest.push_back(t);
  }
  return w;
}

struct SeqStack {
  explicit SeqStack(const SeqWorkload& w)
      : fabric(w.fabric),
        sender(fabric, 0, w.send_ep, w.send_match, w.dpa),
        receiver(fabric, 1, w.recv_ep, w.recv_match, w.dpa),
        user(static_cast<std::size_t>(w.k) * kPayloadBytes),
        status(w.k) {
    sender.connect(receiver);
  }

  std::span<std::byte> slot(std::uint32_t c) {
    return {user.data() + static_cast<std::size_t>(c) * kPayloadBytes,
            kPayloadBytes};
  }

  rdma::Fabric fabric;
  proto::Endpoint sender;
  proto::Endpoint receiver;
  std::vector<std::byte> user;  ///< k receive buffers of 8 B
  std::vector<std::uint8_t> status;  ///< per receive: 0 open, 1 ok, 2 bad
  std::array<std::byte, 8> tx{};
  std::array<std::byte, 8> ack_tx{};
  std::array<std::byte, 8> ack_rx{};
};

struct SeqOutcome {
  std::int64_t wall_ns = 0;  ///< first send -> ack completion
  double model_ns = 0.0;     ///< same interval on the modeled clock
  std::uint64_t failed = 0;
};

std::uint64_t stamp_of(std::uint64_t seqno, std::uint32_t dest) {
  return (seqno << 20) | dest;
}

/// One closed-loop sequence. Checks C1/C2 pairing through the stamps: the
/// message stamped for receive c must complete receive c, exactly once.
SeqOutcome run_sequence(SeqStack& st, const SeqWorkload& w,
                        std::uint64_t seqno, SpanLog* log,
                        const std::string& plant) {
  ScopedSpan seq_span(log, SpanId::kSeq, seqno);
  SeqOutcome out;
  std::fill(st.status.begin(), st.status.end(), 0);
  for (std::uint32_t c = 0; c < w.k; ++c) {
    proto::Endpoint::PostResult r;
    {
      ScopedSpan s(log, SpanId::kProtoPost, seqno);
      r = st.receiver.post_receive({0, w.recv_tag[c], 0}, st.slot(c), c);
    }
    if (r.outcome != proto::Outcome::kPending) st.status[c] = 2;
  }
  {
    ScopedSpan s(log, SpanId::kProtoPost, seqno);
    const auto r = st.sender.post_receive({1, kAckTag, 0}, st.ack_rx, 0);
    if (r.outcome != proto::Outcome::kPending) ++out.failed;
  }

  const auto t0 = Clock::now();
  const std::uint64_t model0 = st.sender.now_ns();
  for (std::uint32_t j = 0; j < w.k; ++j) {
    const std::uint64_t stamp = stamp_of(seqno, w.dest[j]);
    std::memcpy(st.tx.data(), &stamp, sizeof stamp);
    proto::Endpoint::SendResult s;
    {
      ScopedSpan sp(log, SpanId::kProtoSend, seqno);
      s = st.sender.send(1, w.send_tag[j], 0, st.tx);
    }
    if (!s.ok) ++out.failed;
  }
  std::vector<proto::Endpoint::RecvCompletion> done;
  if (w.storm) {  // doorbell-flush the coalescing tail, as fig8 does
    ScopedSpan s(log, SpanId::kProtoProgress, seqno);
    st.sender.progress();
  }
  {
    ScopedSpan s(log, SpanId::kProtoProgress, seqno);
    done = st.receiver.progress();
  }
  // Planted faults for the self-test: a mispairing (two messages land in
  // each other's receive buffers) or a lost completion.
  if (plant == "swap" && done.size() >= 2 && done[0].cookie < w.k &&
      done[1].cookie < w.k) {
    const auto a = st.slot(static_cast<std::uint32_t>(done[0].cookie));
    const auto b = st.slot(static_cast<std::uint32_t>(done[1].cookie));
    std::swap_ranges(a.begin(), a.end(), b.begin());
  }
  if (plant == "drop" && !done.empty()) done.pop_back();
  for (const auto& d : done) {
    if (d.cookie >= w.k || st.status[d.cookie] != 0) {
      ++out.failed;  // unknown receive, or completed twice
      continue;
    }
    const auto c = static_cast<std::uint32_t>(d.cookie);
    std::uint64_t got = 0;
    std::memcpy(&got, st.slot(c).data(), sizeof got);
    const bool ok = got == stamp_of(seqno, c) && d.env.tag == w.recv_tag[c] &&
                    d.env.source == 0 && d.bytes == kPayloadBytes;
    st.status[c] = ok ? 1 : 2;
  }
  for (const std::uint8_t s : st.status)
    if (s != 1) ++out.failed;  // dropped, mispaired, or refused

  proto::Endpoint::SendResult ack;
  {
    ScopedSpan s(log, SpanId::kProtoSend, seqno);
    ack = st.receiver.send(0, kAckTag, 0, st.ack_tx);
  }
  std::vector<proto::Endpoint::RecvCompletion> acks;
  {
    ScopedSpan s(log, SpanId::kProtoProgress, seqno);
    acks = st.sender.progress();
  }
  out.wall_ns = ns_between(t0, Clock::now());
  if (!ack.ok || acks.size() != 1) {
    ++out.failed;
  } else {
    out.model_ns = static_cast<double>(acks[0].completion_ns - model0);
  }
  return out;
}

/// Counters the endpoints of a workload export, summed: the receive side
/// (matching, accelerator, CQEs, receiver protocol counters) and the send
/// side (sender protocol counters, doorbells). A replay rank is both.
struct LayerCounters {
  MatchStats match;
  proto::Endpoint::Counters tx;
  proto::Endpoint::Counters rx;
  double busy_cycles = 0.0;
  double host_cycles = 0.0;
  double memory = 0.0;  ///< a level (bytes in use), not a count
  double cqes = 0.0;
  double doorbells = 0.0;
  double block_slots = 0.0;  ///< blocks processed x threads per block

  void add_rx(const proto::Endpoint& ep) {
    const MatchStats ms = ep.dpa().total_stats();
    match += ms;
    block_slots += static_cast<double>(ms.blocks_processed) *
                   ep.dpa().sharded_engine().config().block_size;
#define OTM_X(f) rx.f += ep.counters().f;
    OTM_ENDPOINT_COUNTER_FIELDS(OTM_X)
#undef OTM_X
    busy_cycles += static_cast<double>(ep.dpa().busy_cycles());
    host_cycles += static_cast<double>(ep.dpa().host_matching_cycles());
    memory += static_cast<double>(ep.dpa().memory_used());
    for (unsigned l = 0; l < ep.ingress_lanes(); ++l)
      cqes += static_cast<double>(ep.lane_cqes(l));
  }

  void add_tx(const proto::Endpoint& ep) {
#define OTM_X(f) tx.f += ep.counters().f;
    OTM_ENDPOINT_COUNTER_FIELDS(OTM_X)
#undef OTM_X
    for (unsigned l = 0; l < ep.ingress_lanes(); ++l)
      doorbells += static_cast<double>(ep.lane_doorbells(l));
  }

  /// What was counted after `before`; the memory level stays this one's.
  LayerCounters since(const LayerCounters& before) const {
    LayerCounters d = *this;
#define OTM_X(f) d.match.f -= before.match.f;
    OTM_MATCH_COUNTER_FIELDS(OTM_X)
#undef OTM_X
#define OTM_X(f) \
  d.tx.f -= before.tx.f; \
  d.rx.f -= before.rx.f;
    OTM_ENDPOINT_COUNTER_FIELDS(OTM_X)
#undef OTM_X
    d.busy_cycles -= before.busy_cycles;
    d.host_cycles -= before.host_cycles;
    d.cqes -= before.cqes;
    d.doorbells -= before.doorbells;
    d.block_slots -= before.block_slots;
    return d;
  }
};

/// The core, dpa, proto-channel and rdma metrics every endpoint-driven
/// workload shares, per message of `msgs`; `scope` describes totals.
void report_layers(Report& rep, const LayerCounters& c, double msgs,
                   const std::string& scope) {
  const std::string pm = per(msgs, "msg");
  const MatchStats& m = c.match;
  rep.set("core.match_attempts_per_msg", safe_div(m.match_attempts, msgs), pm);
  rep.set("core.index_searches_per_msg", safe_div(m.index_searches, msgs), pm);
  rep.set("core.conflicts_per_msg", safe_div(m.conflicts_detected, msgs), pm);
  rep.set("core.fast_path_per_msg", safe_div(m.fast_path_resolutions, msgs), pm);
  rep.set("core.slow_path_per_msg", safe_div(m.slow_path_resolutions, msgs), pm);
  rep.set("core.block_fill", safe_div(m.messages_processed, c.block_slots),
          per(c.block_slots, "block slot"));
  rep.set("core.post_fallbacks", static_cast<double>(m.post_fallbacks), scope);
  rep.set("dpa.busy_cycles_per_msg", safe_div(c.busy_cycles, msgs), pm);
  rep.set("dpa.host_match_cycles_per_msg", safe_div(c.host_cycles, msgs), pm);
  rep.set("dpa.memory_used_bytes", c.memory, "in use, all receiving accelerators");
  rep.set("dpa.watchdog_demotions", static_cast<double>(c.rx.watchdog_demotions),
          scope);
  const double packets = static_cast<double>(c.tx.merged_packets);
  const std::string pp = per(packets, "merged packet");
  rep.set("proto.msgs_per_merged_packet", safe_div(c.tx.coalesced_sends, packets), pp);
  rep.set("proto.flushes_by_size", safe_div(c.tx.flushes_by_size, packets), pp);
  rep.set("proto.flushes_by_deadline", safe_div(c.tx.flushes_by_deadline, packets), pp);
  rep.set("proto.flushes_by_doorbell", safe_div(c.tx.flushes_by_doorbell, packets), pp);
  rep.set("proto.flushes_by_order", safe_div(c.tx.flushes_by_order, packets), pp);
  rep.set("proto.retransmits_per_msg", safe_div(c.tx.retransmits, msgs), pm);
  rep.set("proto.acked_packets_per_msg", safe_div(c.tx.acked_packets, msgs), pm);
  rep.set("proto.dup_discards_per_msg", safe_div(c.rx.dup_discards, msgs), pm);
  // Packets put on the wire for the first time: plain sends plus merged
  // packets (coalesced sends ride inside those).
  const double first_sends =
      static_cast<double>(c.tx.sends - c.tx.coalesced_sends + c.tx.merged_packets);
  const double all_sends = first_sends + static_cast<double>(c.tx.retransmits);
  rep.set("proto.useful_packet_ratio", safe_div(first_sends, all_sends),
          per(all_sends, "packet sent"));
  rep.set("proto.backpressure_stalls", safe_div(c.tx.backpressure_stalls, msgs), pm);
  rep.set("proto.rnr_failures", safe_div(c.tx.rnr_failures, msgs), pm);
  rep.set("rdma.cqes_per_msg", safe_div(c.cqes, msgs), pm);
  rep.set("rdma.doorbells_per_msg", safe_div(c.doorbells, msgs), pm);
}

/// Wall time of proto::packet_crc per KiB over a `bytes`-long packet.
double crc_ns_per_kib(std::size_t bytes, double budget_s) {
  std::vector<std::byte> pkt(std::max(bytes, proto::kHeaderBytes));
  for (std::size_t i = 0; i < pkt.size(); ++i)
    pkt[i] = static_cast<std::byte>(i * 131 + 7);
  std::uint32_t acc = 0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  auto t1 = t0;
  do {
    for (int i = 0; i < 64; ++i) {
      acc ^= proto::packet_crc(pkt);
      pkt.back() = static_cast<std::byte>(acc);  // no loop-invariant hoisting
    }
    calls += 64;
    t1 = Clock::now();
  } while (seconds_between(t0, t1) < budget_s);
  if (acc == 0x5eed5eedu) std::fputc(' ', stderr);  // keep `acc` observable
  return static_cast<double>(ns_between(t0, t1)) /
         (static_cast<double>(calls) * static_cast<double>(pkt.size()) /
          1024.0);
}

/// Per-call wall times of a timed phase. Storage is fixed and touched up
/// front, because growing it with the rate would move peak_rss_mb. The tail
/// is taken per chunk of the phase (one per set-up) and the median chunk
/// tail is reported: on a host whose speed switches between modes every few
/// seconds, one slow spell then moves one chunk's tail instead of the run's
/// (measured on the storm on a shared 4-vCPU VM: IQR/median of the tail
/// across seeds .01-.04 per chunk, against .02-.12 over the whole run).
class LatencyLog {
 public:
  explicit LatencyLog(std::size_t capacity) : us_(capacity) {}

  void add(double ns) {
    if (n_ == us_.size()) us_.push_back(0.0f);
    us_[n_++] = static_cast<float>(ns / 1e3);
  }

  std::size_t size() const { return n_; }

  /// Ends a chunk at the current sample.
  void end_chunk() { chunk_ends_.push_back(n_); }

  /// Nearest-rank median of the whole phase, in us.
  double p50() {
    if (n_ == 0) return 0.0;
    const auto nth = us_.begin() + static_cast<std::ptrdiff_t>(nearest_index(n_, 50.0));
    std::nth_element(us_.begin(), nth, us_.begin() + static_cast<std::ptrdiff_t>(n_));
    return *nth;
  }

  /// Nearest-rank p99 of each chunk (the whole phase if there are no
  /// chunks), in us; the median over chunks is returned. A percentile
  /// needs ten samples beyond it to be resolved, so a chunk of fewer than
  /// 1000 samples gives the highest percentile that has ten (never below
  /// its median); `percent` gets the lowest percentile used.
  double tail(double* percent) {
    std::vector<double> tails;
    *percent = 100.0;
    std::size_t begin = 0;
    std::vector<std::size_t> ends = chunk_ends_;
    if (ends.empty() || ends.back() != n_) ends.push_back(n_);
    for (const std::size_t end : ends) {
      const std::size_t n = end - begin;
      if (n == 0) continue;
      std::size_t idx = nearest_index(n, 99.0);
      if (n - idx - 1 < 10) idx = std::max(nearest_index(n, 50.0), n >= 11 ? n - 11 : 0);
      *percent = std::min(*percent,
                          100.0 * static_cast<double>(idx + 1) / static_cast<double>(n));
      const auto first = us_.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto nth = first + static_cast<std::ptrdiff_t>(idx);
      std::nth_element(first, nth, us_.begin() + static_cast<std::ptrdiff_t>(end));
      tails.push_back(*nth);
      begin = end;
    }
    if (tails.empty()) *percent = 0.0;
    return median(std::move(tails));
  }

  std::size_t chunks() const { return std::max<std::size_t>(chunk_ends_.size(), 1); }

 private:
  static std::size_t nearest_index(std::size_t n, double p) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::max<std::size_t>(rank, 1) - 1;
  }

  std::vector<float> us_;  ///< microseconds; 7 digits are plenty here
  std::size_t n_ = 0;
  std::vector<std::size_t> chunk_ends_;  ///< sample count at each chunk end
};

/// Whole-phase log of a few long calls (replay, analyzer).
LatencyLog log_of(const std::vector<double>& ns) {
  LatencyLog log(0);
  for (const double v : ns) log.add(v);
  return log;
}

/// Latency and rate metrics shared by every workload.
void set_timing(Report& rep, double msgs, double phase_s, LatencyLog& lat,
                const char* unit_name) {
  rep.set("msgs_per_s", safe_div(msgs, phase_s),
          rate_basis(msgs, phase_s) + " timed");
  double percent = 0.0;
  const double tail = lat.tail(&percent);  // before p50(), which mixes the chunks
  char buf[200];
  std::snprintf(buf, sizeof buf, "one %s, %zu samples", unit_name, lat.size());
  char pct[96];
  std::snprintf(pct, sizeof pct, "; p%.4g%s", percent,
                lat.chunks() > 1 ? ", median over the chunks of the run" : "");
  rep.set("lat_p99_us", tail,
          buf + std::string(pct) +
              (percent < 99.0 ? " (the highest with 10 samples beyond it)" : ""));
  rep.set("lat_p50_us", lat.p50(), buf);
}

void run_seq_workload(const Options& opt, Report& rep) {
  const bool storm = opt.workload == "storm_8b_coalesced";
  // Set-up: inputs, stack, connect, and an untimed warm-up that fills slabs,
  // pools and caches. The timed phase runs in kSetups chunks, each on a
  // freshly set-up stack, so set-up is sampled across the whole run like
  // the rates are; setup_s is the median sample.
  SeqWorkload w;
  std::unique_ptr<SeqStack> st;
  std::uint64_t seqno = 0;
  std::vector<double> setup_samples;
  auto set_up = [&] {
    g_cpus.next();
    st.reset();
    const auto t0 = Clock::now();
    w = storm ? make_storm(opt.seed) : make_pingpong();
    st = std::make_unique<SeqStack>(w);
    for (unsigned i = 0; i < w.warmup; ++i) {
      const SeqOutcome o = run_sequence(*st, w, seqno++, nullptr, "");
      rep.attempted += w.k;
      rep.failed += o.failed;
    }
    setup_samples.push_back(seconds_between(t0, Clock::now()));
  };
  set_up();
  const double rss_setup = rss_now_mb();
  const double k = w.k;

  // One timed chunk.
  auto run_phase = [&](double budget_s, SpanLog* log, const std::string& plant,
                       LatencyLog* lat, std::vector<double>* model) {
    std::uint64_t n = 0;
    mark_timed_call();
    const auto p0 = Clock::now();
    auto p1 = p0;
    do {
      const SeqOutcome o = run_sequence(*st, w, seqno++, log, n == 0 ? plant : "");
      rep.attempted += w.k;
      rep.failed += o.failed;
      ++n;
      p1 = Clock::now();
      if (lat != nullptr) lat->add(static_cast<double>(o.wall_ns));
      if (model != nullptr && model->size() < kModeledWindow)
        model->push_back(o.model_ns);
    } while (seconds_between(p0, p1) < budget_s);
    return std::pair<std::uint64_t, double>(n, seconds_between(p0, p1));
  };

  if (!opt.trace) {
    LatencyLog lat(kLatencyCapacity);
    std::vector<double> model;
    std::uint64_t n = 0;
    double phase_s = 0.0;
    for (unsigned c = 0; c < kSetups; ++c) {
      if (c > 0) set_up();
      const auto [cn, cs] =
          run_phase(opt.seconds / kSetups, nullptr, c == 0 ? opt.plant : "", &lat,
                    c == 0 ? &model : nullptr);
      n += cn;
      phase_s += cs;
      lat.end_chunk();
      // The modeled window lies on the first stack; complete it untimed.
      while (c == 0 && model.size() < kModeledWindow) {
        const SeqOutcome o = run_sequence(*st, w, seqno++, nullptr, "");
        rep.attempted += w.k;
        rep.failed += o.failed;
        model.push_back(o.model_ns);
      }
    }
    set_timing(rep, k * static_cast<double>(n), phase_s, lat, "sequence");
    // Same arithmetic as fig8_message_rate, so equal settings give equal
    // bits; cost-model times are deterministic, unlike the wall times.
    double total_ns = 0.0;
    for (unsigned i = 0; i < kModeledWindow; ++i) total_ns += model[i];
    const double avg_seq_ns = total_ns / kModeledWindow;
    rep.set("modeled_msgs_per_s", k * 1e9 / avg_seq_ns,
            per(kModeledWindow, "first timed sequences (cost-model clock)"));
    rep.set("setup_s", median(setup_samples),
            "median of " + std::to_string(setup_samples.size()) +
                " set-ups (stack build + " + std::to_string(w.warmup) +
                " warm-up sequences)");
    return;
  }

  // Traced run: an untraced phase, then the same loop with spans.
  const double phase_budget = 0.3 * opt.seconds;
  const auto [n_plain, s_plain] =
      run_phase(phase_budget, nullptr, "", nullptr, nullptr);
  SpanLog log(kKeptSpans);
  auto counters = [&] {
    LayerCounters c;
    c.add_rx(st->receiver);
    c.add_tx(st->sender);
    return c;
  };
  const LayerCounters before = counters();
  const auto [n_traced, s_traced] =
      run_phase(phase_budget, &log, opt.plant, nullptr, nullptr);
  const LayerCounters layers = counters().since(before);
  const double msgs = k * static_cast<double>(n_traced);
  const std::string pm = per(msgs, "msg");

  // Re-drive the same stream outside the stack: a standalone accelerator
  // (dpa.deliver) and a standalone engine (core.process).
  std::vector<IncomingMessage> stream;
  for (std::uint32_t j = 0; j < w.k; ++j) {
    IncomingMessage im = IncomingMessage::make(0, w.send_tag[j], 0, kPayloadBytes);
    im.merged_sub = w.storm;  // unpacked from kMerged packets in the stack
    stream.push_back(im);
  }
  std::uint64_t wire_seq = 0;
  auto restamp = [&] {
    for (auto& im : stream) im.wire_seq = wire_seq++;
  };
  std::uint64_t redrive_bad = 0;
  auto check = [&](const std::vector<ArrivalOutcome>& outs) {
    for (std::size_t j = 0; j < outs.size(); ++j)
      if (outs[j].kind != ArrivalOutcome::Kind::kMatched ||
          outs[j].match.receive_cookie != w.dest[j])
        ++redrive_bad;
  };
  std::uint64_t dpa_seqs = 0, core_seqs = 0;
  {
    DpaAccelerator acc(w.dpa, w.recv_match);
    const auto t0 = Clock::now();
    do {
      for (std::uint32_t c = 0; c < w.k; ++c) {
        ScopedSpan s(&log, SpanId::kDpaPost, dpa_seqs);
        acc.post_receive({0, w.recv_tag[c], 0}, c + 1, kPayloadBytes, c);
      }
      restamp();
      std::vector<ArrivalOutcome> outs;
      {
        ScopedSpan s(&log, SpanId::kDpaDeliver, dpa_seqs);
        outs = acc.deliver(stream);
      }
      check(outs);
      ++dpa_seqs;
    } while (seconds_between(t0, Clock::now()) < 0.15 * opt.seconds);
  }
  {
    const CostTable costs = w.dpa.shared_costs(w.recv_match.block_size);
    MatchEngine eng(w.recv_match, &costs);
    LockstepExecutor ex;
    const auto t0 = Clock::now();
    do {
      for (std::uint32_t c = 0; c < w.k; ++c) {
        ScopedSpan s(&log, SpanId::kCorePost, core_seqs);
        eng.post_receive({0, w.recv_tag[c], 0}, c + 1, kPayloadBytes, c);
      }
      restamp();
      std::vector<ArrivalOutcome> outs;
      {
        ScopedSpan s(&log, SpanId::kCoreProcess, core_seqs);
        outs = eng.process(stream, ex);
      }
      check(outs);
      ++core_seqs;
    } while (seconds_between(t0, Clock::now()) < 0.15 * opt.seconds);
  }
  if (redrive_bad != 0)
    rep.inconsistent(std::to_string(redrive_bad) +
                     " re-driven arrivals paired differently than in the stack");

  auto avg = [&](SpanId id) {
    const auto& t = log.totals(id);
    return safe_div(static_cast<double>(t.total_ns), static_cast<double>(t.count));
  };
  auto per_msg = [&](SpanId id, double n) {
    return safe_div(static_cast<double>(log.totals(id).total_ns), n);
  };
  const double dpa_msgs = k * static_cast<double>(dpa_seqs);
  const double core_msgs = k * static_cast<double>(core_seqs);
  const double deliver = per_msg(SpanId::kDpaDeliver, dpa_msgs);
  const double process = per_msg(SpanId::kCoreProcess, core_msgs);
  const double progress = per_msg(SpanId::kProtoProgress, msgs);

  report_layers(rep, layers, msgs, "total over the traced phase");
  rep.set("core.process_ns_per_msg", process,
          per(core_msgs, "re-driven msg") + ", standalone MatchEngine");
  rep.set("core.post_ns", avg(SpanId::kCorePost),
          per(static_cast<double>(log.totals(SpanId::kCorePost).count), "call"));
  rep.set("dpa.post_receive_ns", avg(SpanId::kDpaPost),
          per(static_cast<double>(log.totals(SpanId::kDpaPost).count), "call"));
  rep.set("dpa.deliver_ns_per_msg", deliver,
          per(dpa_msgs, "re-driven msg") + ", standalone DpaAccelerator");
  rep.set("dpa.deliver_self_ns_per_msg", deliver - process,
          "dpa.deliver minus core.process");
  rep.set("proto.send_ns", avg(SpanId::kProtoSend),
          per(static_cast<double>(log.totals(SpanId::kProtoSend).count), "call"));
  rep.set("proto.post_receive_ns", avg(SpanId::kProtoPost),
          per(static_cast<double>(log.totals(SpanId::kProtoPost).count), "call"));
  rep.set("proto.progress_ns_per_msg", progress, pm);
  rep.set("proto.progress_self_ns_per_msg", progress - deliver,
          "residual: in-stack progress minus re-driven dpa.deliver");
  const double packets = static_cast<double>(layers.tx.merged_packets);
  const double merged_bytes =
      packets * static_cast<double>(proto::kHeaderBytes + proto::kMergedCountBytes) +
      static_cast<double>(layers.tx.coalesced_sends) *
          static_cast<double>(proto::merged_sub_footprint(kPayloadBytes));
  // Computed, not measured: merged packets are sealed by the sender and
  // checked by the receiver; reliability is inactive on this clean fabric.
  rep.set("proto.crc_bytes_per_msg", safe_div(2.0 * merged_bytes, msgs),
          pm + " (computed)");
  const std::size_t packet_bytes =
      w.storm ? static_cast<std::size_t>(safe_div(merged_bytes, packets))
              : proto::kHeaderBytes + kPayloadBytes;
  rep.set("proto.crc_ns_per_kib", crc_ns_per_kib(packet_bytes, 0.05 * opt.seconds),
          "packet_crc over " + std::to_string(packet_bytes) + " B packets");
  rep.set("mem.rss_after_setup_mb", rss_setup, "current RSS after set-up");
  const double plain_rate = k * static_cast<double>(n_plain) / s_plain;
  const double traced_rate = msgs / s_traced;
  rep.set("bench.msgs_per_s_untraced", plain_rate,
          rate_basis(k * static_cast<double>(n_plain), s_plain));
  rep.set("bench.msgs_per_s_traced", traced_rate, rate_basis(msgs, s_traced));
  rep.set("bench.trace_overhead", safe_div(plain_rate, traced_rate),
          "untraced / traced msgs_per_s");
  rep.set("bench.loop_self_ns_per_msg",
          safe_div(static_cast<double>(log.totals(SpanId::kSeq).self_ns), msgs),
          pm + ", seq span minus its children");
  if (!opt.spans_out.empty() && !log.write(opt.spans_out))
    rep.note("could not write spans to " + opt.spans_out);
}

// ---------------------------------------------------------------------------
// replay_bigfft_r1024: the BigFFT trace replayed natively at 1024 ranks
// through mpi::WorldScheduler, reliable channels and 4-shard DPA matchers,
// with the FIFO, exactly-once and ListMatcher oracles on.

trace::ReplayConfig pinned_replay(std::uint64_t seed, bool oracle) {
  trace::ReplayConfig rc;
  rc.shards = 4;
  rc.sched_seed = seed;
  rc.faults = false;
  rc.fault_seed = 0xc7a05;
  rc.coalescing = false;
  rc.oracle = oracle;
  rc.max_payload_bytes = 512;
  rc.slice = 0.25;
  return rc;
}

constexpr int kReplayRanks = 1024;
constexpr unsigned kReplaySetups = 3;

LayerCounters collect_layers(trace::TraceReplayDriver& d) {
  LayerCounters c;
  for (int g = 0; g < d.target_ranks(); ++g) {
    c.add_rx(d.world().endpoint(g));
    c.add_tx(d.world().endpoint(g));
  }
  return c;
}

/// Messages of a replay result that break a verdict: drops, unmatched
/// receives, FIFO / exactly-once / oracle violations, refused operations.
std::uint64_t replay_failures(const trace::ReplayResult& r) {
  std::uint64_t bad = r.fifo_violations + r.exactly_once_violations +
                      r.oracle_mismatches + r.messages_dropped + r.sends_failed +
                      r.recvs_failed;
  if (r.recvs_completed < r.messages_sent) bad += r.messages_sent - r.recvs_completed;
  if (!r.completed || r.deadlock) bad = std::max<std::uint64_t>(bad, 1);
  return bad;
}

double modeled_rate(const trace::ReplayResult& r) {
  // Same arithmetic as bench/replay_soak.cpp.
  const double secs = static_cast<double>(r.modeled_ns) / 1e9;
  return secs > 0.0 ? static_cast<double>(r.messages_sent) / secs : 0.0;
}

void run_replay(const Options& opt, Report& rep) {
  const trace::AppInfo* info = trace::find_app("BigFFT");
  trace::Trace t;
  SpanLog log(kKeptSpans);
  std::uint64_t builds = 0;
  auto build = [&](bool oracle, SpanLog* sl) {
    ScopedSpan s(sl, SpanId::kReplayBuild, builds++);
    return std::make_unique<trace::TraceReplayDriver>(
        t, kReplayRanks, pinned_replay(opt.seed, oracle));
  };
  bool have_first = false;
  trace::ReplayResult first;
  auto account = [&](const trace::ReplayResult& r) {
    rep.attempted += r.messages_sent;
    rep.failed += replay_failures(r);
    if (!have_first) {
      first = r;
      have_first = true;
    } else if (modeled_rate(r) != modeled_rate(first) ||
               r.messages_sent != first.messages_sent) {
      rep.inconsistent("replay modeled rate changed between runs of one seed");
    }
  };

  // Set-up, repeated kReplaySetups times: trace generation, driver
  // construction, and one untimed warm-up replay. setup_s is the median.
  std::vector<double> setup_samples;
  for (unsigned i = 0; i < kReplaySetups; ++i) {
    const auto t0 = Clock::now();
    t = info->make();
    auto d = build(true, nullptr);
    account(d->run());
    setup_samples.push_back(seconds_between(t0, Clock::now()));
  }
  const double rss_setup = rss_now_mb();

  // Timed phase: each run() on a fresh driver; construction is not timed.
  struct Timed {
    double run_s_total = 0.0;
    double msgs = 0.0;
    std::vector<double> run_ns;
  };
  auto timed_phase = [&](double budget_s, bool oracle, SpanLog* sl,
                         LayerCounters* layers) {
    Timed out;
    do {
      auto d = build(oracle, sl);
      trace::ReplayResult r;
      g_cpus.next();
      mark_timed_call();
      const auto t0 = Clock::now();
      {
        ScopedSpan s(sl, SpanId::kReplayRun, out.run_ns.size());
        r = d->run();
      }
      const double s = seconds_between(t0, Clock::now());
      if (oracle) account(r);
      out.run_s_total += s;
      out.msgs += static_cast<double>(r.messages_sent);
      out.run_ns.push_back(s * 1e9);
      if (layers != nullptr && out.run_ns.size() == 1) *layers = collect_layers(*d);
    } while (out.run_s_total < budget_s);
    return out;
  };

  if (!opt.trace) {
    const Timed tp = timed_phase(opt.seconds, true, nullptr, nullptr);
    LatencyLog lat = log_of(tp.run_ns);
    set_timing(rep, tp.msgs, tp.run_s_total, lat, "run() call");
    rep.set("modeled_msgs_per_s", modeled_rate(first),
            per(static_cast<double>(first.messages_sent),
                "msgs of one replay (cost-model clock)"));
    rep.set("setup_s", median(setup_samples),
            "median of " + std::to_string(setup_samples.size()) +
                " set-ups (trace generation + driver construction + one warm-up "
                "replay); each timed run() also gets a fresh driver, untimed");
    return;
  }

  const Timed plain = timed_phase(0.3 * opt.seconds, true, nullptr, nullptr);
  LayerCounters l;
  const Timed on = timed_phase(0.25 * opt.seconds, true, &log, &l);
  const Timed off = timed_phase(0.25 * opt.seconds, false, &log, nullptr);
  const trace::ReplayResult& r = first;
  const double msgs = static_cast<double>(r.messages_sent);
  const std::string pm = per(msgs, "msg");
  report_layers(rep, l, msgs, "one replay, all ranks");
  // Computed, not measured: with reliability on, every packet is sealed
  // once by its sender and checked at every arrival (first sends and
  // retransmits). Payloads are the trace's sizes clamped to [8, 512].
  const trace::Trace sliced = trace::slice_trace(t, 0.25);
  double payload = 0.0, sends = 0.0;
  for (const auto& rt : sliced.ranks)
    for (const auto& op : rt.ops)
      if (op.type == trace::OpType::kSend || op.type == trace::OpType::kIsend) {
        payload += std::clamp<double>(op.bytes, 8.0, 512.0);
        sends += 1.0;
      }
  const double packet =
      static_cast<double>(proto::kHeaderBytes) + safe_div(payload, sends);
  const double crc_bytes =
      packet * static_cast<double>(2 * l.tx.sends + l.tx.retransmits);
  rep.set("proto.crc_bytes_per_msg", safe_div(crc_bytes, msgs), pm + " (computed)");
  rep.set("proto.crc_ns_per_kib",
          crc_ns_per_kib(static_cast<std::size_t>(packet), 0.05 * opt.seconds),
          "packet_crc over " + std::to_string(static_cast<int>(packet)) + " B packets");
  rep.set("mpi.scheduler_steps_per_msg", safe_div(r.scheduler_steps, msgs), pm);
  rep.set("mpi.events_per_msg", safe_div(r.events, msgs), pm);
  rep.set("trace.replay_run_s", median(on.run_ns) / 1e9,
          "median of " + std::to_string(on.run_ns.size()) + " traced run() calls");
  rep.set("trace.queue_depth_avg", r.queue_depth_avg, "sampled at every post");
  rep.set("trace.queue_depth_max", static_cast<double>(r.queue_depth_max),
          "peak outstanding posted receives");
  rep.set("mem.rss_after_setup_mb", rss_setup, "current RSS after set-up");
  const double t_on = median(on.run_ns), t_off = median(off.run_ns);
  rep.set("baseline.oracle_share", safe_div(t_on - t_off, t_on),
          "(run() with oracle - without) / with; medians of " +
              std::to_string(on.run_ns.size()) + " and " +
              std::to_string(off.run_ns.size()) + " runs");
  const double plain_rate = plain.msgs / plain.run_s_total;
  const double traced_rate = on.msgs / on.run_s_total;
  rep.set("bench.msgs_per_s_untraced", plain_rate,
          rate_basis(plain.msgs, plain.run_s_total));
  rep.set("bench.msgs_per_s_traced", traced_rate, rate_basis(on.msgs, on.run_s_total));
  rep.set("bench.trace_overhead", safe_div(plain_rate, traced_rate),
          "untraced / traced msgs_per_s");
  if (!opt.spans_out.empty() && !log.write(opt.spans_out))
    rep.note("could not write spans to " + opt.spans_out);
}

// ---------------------------------------------------------------------------
// analyze_boxlib_cns: TraceAnalyzer at 1 bin on the 64-rank BoxLib-CNS
// trace, checked against an independent ListMatcher recomputation.

constexpr unsigned kAnalyzeSetups = 3;

/// Returns the allocator's free pages to the kernel, so the next analysis
/// builds its engine tables on fresh pages, as the first analysis of a
/// process does. Without it, whether the 650 MB of tables are faulted in
/// again depends on what earlier calls left in the heap: a call took about
/// 150 or about 450 ms, and the number of set-ups alone switched the mode.
void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

trace::AnalyzerConfig pinned_analyzer() {
  trace::AnalyzerConfig a;
  a.bins = 1;
  a.block_size = 1;
  a.max_receives = std::size_t{1} << 16;
  a.max_unexpected = std::size_t{1} << 16;
  a.enable_fast_path = true;
  a.early_booking_check = false;
  a.obs = nullptr;
  return a;
}

struct ListCheck {
  std::uint64_t messages = 0;
  std::uint64_t matched = 0;    ///< message/receive pairings
  std::uint64_t max_scan = 0;   ///< longest single queue scan
  double avg_depth = 0.0;       ///< analyzer's searched-queue occupancy
};

/// Replays the trace through one ListMatcher per rank in the analyzer's
/// global (timestamp, rank) order: at 1 bin and block size 1 every
/// operation is matched on arrival, so the two must agree exactly.
ListCheck list_recompute(const trace::Trace& t) {
  ListCheck out;
  std::vector<ListMatcher> lm(static_cast<std::size_t>(t.num_ranks));
  struct Cursor {
    double ts;
    Rank rank;
    std::size_t index;
    bool operator>(const Cursor& o) const noexcept {
      return ts != o.ts ? ts > o.ts : rank > o.rank;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<>> heap;
  for (const auto& r : t.ranks)
    if (!r.ops.empty()) heap.push({r.ops[0].start_ts, r.rank, 0});
  double depth_sum = 0.0;
  std::uint64_t depth_ops = 0, id = 0;
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    const auto& rt = t.ranks[static_cast<std::size_t>(c.rank)];
    const trace::TraceOp& op = rt.ops[c.index];
    if (c.index + 1 < rt.ops.size())
      heap.push({rt.ops[c.index + 1].start_ts, c.rank, c.index + 1});
    if (trace::category_of(op.type) != trace::OpCategory::kP2p) continue;
    const bool send =
        op.type == trace::OpType::kSend || op.type == trace::OpType::kIsend;
    ListMatcher& m = lm[static_cast<std::size_t>(send ? op.peer : c.rank)];
    const std::uint64_t before = m.stats().attempts;
    std::optional<std::uint64_t> hit;
    if (send) {
      depth_sum += static_cast<double>(m.posted_size());
      hit = m.arrive({c.rank, op.tag, op.comm}, id++);
      ++out.messages;
    } else {
      depth_sum += static_cast<double>(m.unexpected_size());
      hit = m.post({op.peer, op.tag, op.comm}, id++);
    }
    ++depth_ops;
    out.max_scan = std::max(out.max_scan, m.stats().attempts - before);
    if (hit) ++out.matched;
  }
  out.avg_depth = depth_ops == 0 ? 0.0 : depth_sum / static_cast<double>(depth_ops);
  return out;
}

std::uint64_t matched_pairs(const trace::AppAnalysis& a) {
  return a.messages - a.unexpected - a.dropped + a.matched_at_post;
}

void run_analyze(const Options& opt, Report& rep) {
  const trace::TraceAnalyzer analyzer(pinned_analyzer());
  SpanLog log(kKeptSpans);

  // Set-up, repeated kAnalyzeSetups times: trace generation and one untimed
  // warm-up analysis. setup_s is the median.
  std::vector<double> setup_samples;
  trace::Trace t;
  trace::AppAnalysis ref;
  for (unsigned i = 0; i < kAnalyzeSetups; ++i) {
    release_free_memory();
    const auto t0 = Clock::now();
    t = trace::make_boxlib_cns();
    ref = analyzer.analyze(t);
    setup_samples.push_back(seconds_between(t0, Clock::now()));
  }
  const double rss_setup = rss_now_mb();

  const auto l0 = Clock::now();
  const ListCheck lc = list_recompute(t);
  const double list_s = seconds_between(l0, Clock::now());
  auto score = [&](const trace::AppAnalysis& a) {
    rep.attempted += a.messages;
    std::uint64_t bad = a.dropped;
    const std::uint64_t pairs = matched_pairs(a);
    bad += pairs > lc.matched ? pairs - lc.matched : lc.matched - pairs;
    if (a.messages != lc.messages || a.max_queue_depth != lc.max_scan ||
        std::abs(a.avg_queue_depth - lc.avg_depth) > 1e-9 * std::max(1.0, lc.avg_depth))
      bad = std::max<std::uint64_t>(bad, 1);
    rep.failed += bad;
  };
  score(ref);

  struct Timed {
    double total_s = 0.0;
    double msgs = 0.0;
    std::vector<double> call_ns;
  };
  auto timed_phase = [&](double budget_s, SpanLog* sl) {
    Timed out;
    do {
      trace::AppAnalysis a;
      release_free_memory();
      g_cpus.next();
      mark_timed_call();
      const auto t0 = Clock::now();
      {
        ScopedSpan s(sl, SpanId::kAnalyze, out.call_ns.size());
        a = analyzer.analyze(t);
      }
      const double s = seconds_between(t0, Clock::now());
      score(a);
      out.total_s += s;
      out.msgs += static_cast<double>(a.messages);
      out.call_ns.push_back(s * 1e9);
    } while (out.total_s < budget_s);
    return out;
  };

  if (!opt.trace) {
    const Timed tp = timed_phase(opt.seconds, nullptr);
    LatencyLog lat = log_of(tp.call_ns);
    set_timing(rep, tp.msgs, tp.total_s, lat, "analyze() call");
    rep.set("modeled_msgs_per_s", 1.0,
            "not modeled: the analyzer has no cost-model clock (fixed placeholder)");
    rep.set("setup_s", median(setup_samples),
            "median of " + std::to_string(setup_samples.size()) +
                " set-ups (trace generation + one warm-up analyze())");
    return;
  }
  const Timed plain = timed_phase(0.5 * opt.seconds, nullptr);
  const Timed traced = timed_phase(0.5 * opt.seconds, &log);
  const double m = static_cast<double>(ref.messages);
  const std::string pm = per(m, "msg");
  const double ops = m + static_cast<double>(ref.receives_posted);
  rep.set("core.match_attempts_per_msg", ref.avg_search_attempts * ops / m,
          pm + " (from avg_search_attempts)");
  rep.set("core.conflicts_per_msg", safe_div(ref.conflicts, m), pm);
  rep.set("trace.analyze_s", median(traced.call_ns) / 1e9,
          "median of " + std::to_string(traced.call_ns.size()) +
              " traced analyze() calls");
  rep.set("trace.analyzer_avg_queue_depth", ref.avg_queue_depth,
          "per matching op, 1 bin");
  rep.set("trace.analyzer_max_depth", static_cast<double>(ref.max_queue_depth),
          "deepest single scan");
  rep.set("mem.rss_after_setup_mb", rss_setup, "current RSS after set-up");
  rep.set("baseline.list_recompute_s", list_s, "one ListMatcher recomputation");
  const double plain_rate = plain.msgs / plain.total_s;
  const double traced_rate = traced.msgs / traced.total_s;
  rep.set("bench.msgs_per_s_untraced", plain_rate,
          rate_basis(plain.msgs, plain.total_s));
  rep.set("bench.msgs_per_s_traced", traced_rate,
          rate_basis(traced.msgs, traced.total_s));
  rep.set("bench.trace_overhead", safe_div(plain_rate, traced_rate),
          "untraced / traced msgs_per_s");
  if (!opt.spans_out.empty() && !log.write(opt.spans_out))
    rep.note("could not write spans to " + opt.spans_out);
}

void print_json(const Report& rep, bool trace) {
  bool finite = true;
  for (const auto& [name, m] : rep.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = rep.failed == 0 && rep.consistent && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (const MetricDef& d : trace ? std::span<const MetricDef>(kPerLayer)
                                  : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = rep.metrics.find(d.name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                d.name, std::isfinite(v) ? v : 0.0, d.unit);
    first = false;
  }
  std::printf("}}\n");
}

/// Human-readable report on stderr: value, unit and denominator of every
/// metric this mode reports, then the notes.
void print_report(const Options& opt, const Report& rep, double fail_ratio) {
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0);
  std::fprintf(stderr, "  %-34s %16s  %-10s %s\n", "metric", "value", "unit", "basis");
  for (const MetricDef& d : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = rep.metrics.find(d.name);
    if (it == rep.metrics.end())
      std::fprintf(stderr, "  %-34s %16s  %-10s %s\n", d.name, "0", d.unit,
                   "n/a for this workload (reported as 0)");
    else
      std::fprintf(stderr, "  %-34s %16.6g  %-10s %s\n", d.name, it->second.value,
                   d.unit, it->second.basis.c_str());
  }
  std::fprintf(stderr, "  fail_ratio = %.6g (%llu failed of %llu attempted)\n",
               fail_ratio,
               static_cast<unsigned long long>(rep.failed),
               static_cast<unsigned long long>(rep.attempted));
  std::fprintf(stderr, "  process start -> first timed call = %.3f s\n",
               g_to_first_timed_s);
  for (const auto& n : rep.notes) std::fprintf(stderr, "  note: %s\n", n.c_str());
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.spans_out = args.get("spans-out", "");
  opt.plant = args.get("plant", "");
  if (opt.plant != "" && opt.plant != "swap" && opt.plant != "drop") {
    std::fprintf(stderr, "error: --plant must be swap or drop\n");
    return 2;
  }

  const bool sequence =
      opt.workload == "pingpong_wc" || opt.workload == "storm_8b_coalesced";
  if (!opt.plant.empty() && !sequence) {
    std::fprintf(stderr, "error: --plant applies to the sequence workloads only\n");
    return 2;
  }
  Report rep;
  if (sequence) {
    run_seq_workload(opt, rep);
  } else if (opt.workload == "replay_bigfft_r1024") {
    run_replay(opt, rep);
  } else if (opt.workload == "analyze_boxlib_cns") {
    run_analyze(opt, rep);
  } else {
    std::fprintf(stderr,
                 "error: unknown --workload '%s' (pingpong_wc, storm_8b_coalesced, "
                 "replay_bigfft_r1024, analyze_boxlib_cns)\n",
                 opt.workload.c_str());
    return 2;
  }
  const double fail_ratio =
      safe_div(static_cast<double>(rep.failed), static_cast<double>(rep.attempted));
  const std::string ops = per(static_cast<double>(rep.attempted), "attempted msg");
  if (!opt.trace) {
    rep.set("peak_rss_mb", peak_rss_mb(), "getrusage ru_maxrss of this process");
    rep.set("ok_ratio", 1.0 - fail_ratio, ops + " (1 - fail_ratio)");
  }
  rep.set("bench.fail_ratio", fail_ratio, ops);

  print_report(opt, rep, fail_ratio);
  print_json(rep, opt.trace);
  return 0;
}
