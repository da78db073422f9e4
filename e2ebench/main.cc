// osum_e2e: the repository's end-to-end benchmark.
//
//   osum_e2e --workload <hot_zipf|overlap_mix|cold_scan> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures what a user of the served system sees: set-up, a
// closed-loop saturation phase, an open-loop phase at a fixed Poisson
// rate, response size and peak RSS. The reported timings are CPU time
// (the served stack's CPU per query; set-up CPU seconds) rescaled to a
// reference host speed (calibrate.h); the wall-clock throughput and
// latencies are printed next to them. --trace 1 replays a
// prefix of the workload's stream under tracing and reports per-layer
// numbers (see traced.h) and the workload self-checks. Both modes check
// a sample of answers against a memo-off, cache-off reference and
// reconcile the request ledgers; any failure makes the run incorrect and
// the exit code non-zero. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// e2ebench/run.py builds this binary and runs it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "common.h"
#include "loadgen.h"
#include "stack.h"
#include "traced.h"
#include "workload.h"

namespace osum::e2e {
namespace {

// The shape of every run, the same for all workloads (the generator's
// shape is in loadgen.h). The closed loop, which gives cpu_us_per_query,
// runs for kClosedShare of --seconds, the open loop for the rest.
constexpr double kClosedShare = 0.75;
constexpr size_t kSetupReps = 7;
// Generator lateness (p99, per window of kOpenWindow sends) beyond which
// the open loop's latencies are reported invalid.
constexpr double kLateBoundUs = 20000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;  // optional
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: osum_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Usage((std::string("bad argument ") + argv[i]).c_str());
    }
    flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  auto take = [&](const char* name) -> std::optional<std::string> {
    auto it = flags.find(name);
    if (it == flags.end()) return std::nullopt;
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto number = [&](const char* name) {
    std::optional<std::string> v = take(name);
    if (!v) Usage((std::string("missing --") + name).c_str());
    char* end = nullptr;
    double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || d < 0) {
      Usage((std::string("bad value for --") + name).c_str());
    }
    return d;
  };
  args.workload = take("workload").value_or("");
  args.seed = static_cast<uint64_t>(number("seed"));
  args.seconds = number("seconds");
  args.trace = static_cast<int>(number("trace"));
  args.trace_out = take("trace-out").value_or("");
  if (!flags.empty()) Usage(("unknown flag --" + flags.begin()->first).c_str());
  if (!ParseWorkload(args.workload)) Usage("unknown --workload");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

/// Forgets the peak RSS so far: returns freed heap to the kernel and
/// resets VmHWM. Called after the repeated set-ups, whose transient
/// memory belongs to the benchmark's repetition, not to the served
/// system's footprint under the workload.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Aggregate CPU ticks from /proc/stat: {steal, total}. On a shared
/// virtual machine, steal time during a run says how much the host took
/// away from it, which explains a timing outlier.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Accumulates pass/fail checks and the attempted/failed counts.
class Verdict {
 public:
  void Check(bool ok, const std::string& what) {
    std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
  }
  void Count(const Tally& tally, size_t mismatches) {
    attempted_ += tally.sent;
    failed_ += tally.not_ok + (tally.sent - std::min(tally.sent,
                                                     tally.received)) +
               mismatches;
  }
  bool correct() const { return correct_ && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The ledgers the served stack must balance once it is idle.
void CheckLedgers(Stack* stack, Verdict* verdict) {
  net::ServerStats net = stack->server().stats();
  verdict->Check(net.frames_in == net.responses_out + net.dropped_responses,
                 "ledger frames_in == responses_out + dropped");
  serve::Metrics m = stack->service().metrics();
  // A coalesced wait is answered from the cache: it counts as a hit.
  verdict->Check(
      m.cache.hits + m.cache.coalesced_waits + m.cache.misses == m.queries,
      "ledger cache hits + misses == queries");
}

void CheckTally(const char* phase, const Tally& tally,
                const search::SearchContext& reference, Verdict* verdict) {
  verdict->Check(tally.sent == tally.received,
                 std::string("ledger ") + phase + " sent == received");
  size_t mismatches = OracleMismatches(reference, tally);
  verdict->Check(mismatches == 0,
                 std::string("oracle ") + phase + " (" +
                     std::to_string(tally.samples.size()) + " sampled)");
  verdict->Count(tally, mismatches);
}

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += verdict.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted());
  json += ", \"failed\": " + std::to_string(verdict.failed());
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The median of each set-up step over the repetitions, each rescaled by
/// the calibration taken right after it.
std::vector<Metric> SetupMetrics(const std::vector<SetupTimes>& times,
                                 const std::vector<double>& calibration_ms) {
  std::vector<double> total, dataset, rank, context, warm;
  for (size_t i = 0; i < times.size(); ++i) {
    const SetupTimes& t = times[i];
    const double scale = ToReferenceSpeed(calibration_ms[i]);
    total.push_back(t.total() * scale);
    dataset.push_back(t.dataset_s * scale);
    rank.push_back(t.rank_s * scale);
    context.push_back(t.context_s * scale);
    warm.push_back(t.warm_s * scale);
  }
  return {{"setup_s", Median(total), "s"},
          {"setup.dataset_s", Median(dataset), "s"},
          {"setup.rank_s", Median(rank), "s"},
          {"setup.context_s", Median(context), "s"},
          {"setup.warm_s", Median(warm), "s"}};
}

/// Prints the server-side counters that only a concurrent phase can move
/// and that are zero in a healthy run; reported in the log, not as
/// metrics.
void PrintServerCounters(Stack* stack) {
  serve::Metrics m = stack->service().metrics();
  net::ServerStats net = stack->server().stats();
  std::printf("serve.coalesced_waits %llu, serve.admission_rejects %llu, "
              "net.dropped_responses %llu\n",
              static_cast<unsigned long long>(m.cache.coalesced_waits),
              static_cast<unsigned long long>(m.cache.admission_rejects),
              static_cast<unsigned long long>(net.dropped_responses));
}

/// --trace 0: the closed and open loops on the warmed `stack`.
std::vector<Metric> MeasureEndToEnd(const Args& args, Workload workload,
                                    const Vocabulary& vocab, Stack* stack,
                                    Verdict* verdict) {
  ResetPeakRss();
  RequestStream closed_stream(vocab, workload, args.seed, Phase::kClosed);
  ClosedLoopResult c =
      RunClosedLoop(stack, &closed_stream, kClosedShare * args.seconds,
                    RebindEvery(workload));

  RequestStream open_stream(vocab, workload, args.seed, Phase::kOpen);
  const double cpu_start = ProcessCpuSeconds();
  OpenLoopResult o =
      RunOpenLoop(stack, &open_stream, (1 - kClosedShare) * args.seconds,
                  args.seed, RebindEvery(workload));
  const double open_cpu_s =
      ProcessCpuSeconds() - cpu_start - o.generator_cpu_s;
  // Read before the oracle's reference exists: its index and back end are
  // the benchmark's, not the served system's.
  const double peak_rss_mb = PeakRssMb();

  Reference reference(stack->dblp());
  CheckTally("closed loop", c.tally, reference.context, verdict);
  CheckTally("open loop", o.tally, reference.context, verdict);
  CheckLedgers(stack, verdict);
  PrintServerCounters(stack);
  if (!c.rebind_ms.empty() || !o.rebind_ms.empty()) {
    std::printf("rebinds: %zu closed, %zu open\n", c.rebind_ms.size(),
                o.rebind_ms.size());
  }
  std::printf("fail_frac %.6f (%llu of %llu)\n",
              Ratio(verdict->failed(), verdict->attempted()),
              static_cast<unsigned long long>(verdict->failed()),
              static_cast<unsigned long long>(verdict->attempted()));

  // Per round: the served stack's CPU per query, rescaled by the mean of
  // the calibrations taken just before and just after the round.
  std::vector<double> cpu_us, ref_cpu_us, round_qps, calibration_ms;
  uint64_t completed = 0;
  double server_cpu_s = 0;
  for (size_t r = 0; r < c.rounds.size(); ++r) {
    const ClosedRound& round = c.rounds[r];
    completed += round.completed;
    server_cpu_s += round.server_cpu_s;
    if (round.completed == 0) continue;
    const double calibration =
        (c.calibration_ms[r] + c.calibration_ms[r + 1]) / 2;
    const double us = 1e6 * round.server_cpu_s /
                      static_cast<double>(round.completed);
    cpu_us.push_back(us);
    ref_cpu_us.push_back(us * ToReferenceSpeed(calibration));
    round_qps.push_back(static_cast<double>(round.completed) / round.wall_s);
    calibration_ms.push_back(calibration);
  }
  // Wall-clock figures, printed next to the CPU ones. They are what a
  // client sees on this host at this moment; on a shared host they swing
  // with its load, so they are not reported as metrics.
  std::printf("closed loop: %zu rounds of %.1f s, qps %.1f (median over "
              "rounds), %.2f us of server CPU per query (whole phase), "
              "%.2f us (median over rounds), host calibration %.4f ms "
              "(median; reference %.2f ms)\n",
              c.rounds.size(), kRoundS, Median(round_qps),
              1e6 * server_cpu_s /
                  static_cast<double>(std::max<uint64_t>(1, completed)),
              Median(cpu_us), Median(calibration_ms), kReferenceKernelMs);
  // Lateness is judged like latency, per window of kOpenWindow sends, so
  // a host stall confined to a few windows neither invalidates the phase
  // nor moves the reported percentiles.
  const double late_p99 = WindowedPercentile(o.late_us, kOpenWindow, 99);
  std::printf("open loop: %zu requests at %.0f/s, %.2f us of server CPU per "
              "query, gen_late_us.p99 %.1f us (bound %.0f us)\n",
              o.latency_us.size(), kOpenRateQps,
              1e6 * open_cpu_s / static_cast<double>(o.tally.received),
              late_p99, kLateBoundUs);
  if (late_p99 <= kLateBoundUs) {
    std::printf("open loop: p50_us %.2f, p99_us %.2f (medians over windows "
                "of %zu requests)\n",
                WindowedPercentile(o.latency_us, kOpenWindow, 50),
                WindowedPercentile(o.latency_us, kOpenWindow, 99),
                kOpenWindow);
  } else {
    std::printf("open loop: INVALID, the generator fell behind schedule; no "
                "latency reported\n");
  }
  verdict->Check(c.tally.received > 0 && o.tally.received > 0,
                 "both loops completed requests");

  verdict->Check(ref_cpu_us.size() >= 5, "closed loop has >= 5 rounds");
  return {{"cpu_us_per_query", Median(ref_cpu_us), "us"},
          {"resp_bytes", Ratio(o.tally.resp_bytes, o.tally.received), "bytes"},
          {"peak_rss_mb", peak_rss_mb, "MB"}};
}

/// --trace 1: the traced replay on the warmed `stack`, and the workload
/// self-checks.
std::vector<Metric> MeasureLayers(const Args& args, Workload workload,
                                  const Vocabulary& vocab,
                                  const std::vector<double>& untraced_rtt,
                                  Stack* stack, Verdict* verdict) {
  Reference reference(stack->dblp());
  TracedResult t =
      RunTraced(stack, vocab, workload, args.seed, reference.context);
  CheckTally("traced replay", t.tally, reference.context, verdict);
  CheckLedgers(stack, verdict);
  PrintServerCounters(stack);
  double untraced = Mean(untraced_rtt);
  t.metrics.push_back({"trace.overhead_frac",
                       untraced > 0 ? t.mean_rtt_us / untraced - 1.0 : 0.0,
                       "ratio"});

  // Each workload does what its name says.
  std::map<std::string, double> by_name;
  for (const Metric& m : t.metrics) by_name[m.name] = m.value;
  double cache = by_name["serve.cache_hit_rate"];
  double memo = by_name["search.memo_hit_rate"];
  switch (workload) {
    case Workload::kHotZipf:
      verdict->Check(cache >= 0.8, "hot_zipf: cache hit rate >= 0.8");
      break;
    case Workload::kOverlapMix:
      verdict->Check(cache <= 0.3, "overlap_mix: cache hit rate <= 0.3");
      verdict->Check(memo >= 0.8, "overlap_mix: memo hit rate >= 0.8");
      break;
    case Workload::kColdScan: {
      verdict->Check(cache <= 0.05 && memo <= 0.05,
                     "cold_scan: cache and memo hit rates <= 0.05");
      // Among the layers that compute the answer. Transport (net) is not
      // compared: a loopback round trip costs about as much as a cold
      // query's generation and selection together.
      double core = by_name["self_share.core"];
      bool largest = core > by_name["self_share.serve"] &&
                     core > by_name["self_share.search"];
      verdict->Check(largest, "cold_scan: core self time > serve and search");
      break;
    }
  }
  if (!args.trace_out.empty()) {
    verdict->Check(WriteSpans(args.trace_out, t.spans),
                   "spans written to " + args.trace_out);
  }
  return std::move(t.metrics);
}

int Run(const Args& args) {
  const Workload workload = *ParseWorkload(args.workload);
  Verdict verdict;

  // Set up kSetupReps times and keep the last stack; the traced mode also
  // replays its prefix untraced on the first one, for the overhead.
  std::vector<SetupTimes> times;
  std::vector<double> setup_calibration_ms;
  std::unique_ptr<Stack> stack;
  std::optional<Vocabulary> vocab;
  std::vector<double> untraced_rtt;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    SetupTimes t;
    stack = Stack::Build(workload, &t);
    if (!vocab) vocab = Vocabulary::Build(stack->dblp(), workload);
    // The warm-up's client is this thread; its CPU is not the served
    // system's.
    double start = ProcessCpuSeconds() - ThreadCpuSeconds();
    RequestStream warm(*vocab, workload, args.seed, Phase::kWarm);
    Tally warm_tally = Warm(stack->port(), &warm);
    t.warm_s += ProcessCpuSeconds() - ThreadCpuSeconds() - start;
    times.push_back(t);
    setup_calibration_ms.push_back(CalibrateMs());
    if (warm_tally.not_ok != 0) {
      std::fprintf(stderr, "error: warm-up got %llu failed responses\n",
                   static_cast<unsigned long long>(warm_tally.not_ok));
      return 1;
    }
    if (args.trace == 1 && rep == 0) {
      untraced_rtt = ReplayUntraced(stack.get(), *vocab, workload, args.seed);
    }
  }
  std::vector<Metric> setup = SetupMetrics(times, setup_calibration_ms);
  std::printf("set-up calibration: %.4f ms median (reference %.2f ms)\n",
              Median(setup_calibration_ms), kReferenceKernelMs);
  std::printf("stream_digest %016llx\n",
              static_cast<unsigned long long>(
                  StreamDigest(*vocab, workload, args.seed, 1000)));

  std::vector<Metric> metrics;
  const std::pair<uint64_t, uint64_t> ticks_before = CpuTicks();
  if (args.trace == 0) {
    metrics = MeasureEndToEnd(args, workload, *vocab, stack.get(), &verdict);
    metrics.push_back(setup.front());
  } else {
    metrics = MeasureLayers(args, workload, *vocab, untraced_rtt,
                            stack.get(), &verdict);
    metrics.insert(metrics.end(), setup.begin() + 1, setup.end());
  }
  const std::pair<uint64_t, uint64_t> ticks_after = CpuTicks();
  std::printf("host steal during the measured phases: %.1f%% of CPU time\n",
              100.0 * Ratio(ticks_after.first - ticks_before.first,
                            ticks_after.second - ticks_before.second));
  stack.reset();
  PrintResult(verdict, metrics);
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace osum::e2e

int main(int argc, char** argv) {
  osum::e2e::Args args = osum::e2e::ParseArgs(argc, argv);
  try {
    return osum::e2e::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
