#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/codec.h"
#include "core/os_generator.h"
#include "core/size_l.h"
#include "wire.h"

namespace osum::e2e {

namespace {

/// Collects spans relative to the replay's start.
class SpanLog {
 public:
  explicit SpanLog(std::vector<Span>* out) : out_(out), epoch_(Clock::now()) {}

  /// Records [start, end) and returns its duration in microseconds.
  double Add(uint64_t request, const char* name, const char* parent,
             Clock::time_point start, Clock::time_point end) {
    double dur = MicrosBetween(start, end);
    out_->push_back(Span{request, name, parent, MicrosBetween(epoch_, start),
                         dur});
    return dur;
  }

 private:
  std::vector<Span>* out_;
  Clock::time_point epoch_;
};

/// The hits a miss on `request` generates and selects, taken from the
/// program's own answer: under subject ranking the served results'
/// subjects (the truncation happens before any work), under summary
/// ranking every hit the index returned (each one's summary is computed
/// before the ranking truncates).
std::vector<api::Hit> ComputedHits(const api::QueryRequest& request,
                                   const api::QueryResponse& served,
                                   std::vector<api::Hit> index_hits) {
  if (request.options().ranking != api::ResultRanking::kSubjectImportance) {
    return index_hits;
  }
  std::vector<api::Hit> hits;
  for (const api::QueryResult& r : served.result_list()) {
    hits.push_back(r.subject);
  }
  return hits;
}

/// The served result for `hit`, if the answer kept it.
const api::QueryResult* ServedResult(const api::QueryResponse& served,
                                     const api::Hit& hit) {
  for (const api::QueryResult& r : served.result_list()) {
    if (r.subject.relation == hit.relation && r.subject.tuple == hit.tuple) {
      return &r;
    }
  }
  return nullptr;
}

/// The in-process twin of the served stack: its own back end, a twin
/// service (with a second context when the workload rebinds) and the
/// lockstep mirror context for search.query.
struct Twin {
  core::DataGraphBackend backend;
  search::SearchContext primary;
  std::optional<search::SearchContext> secondary;
  search::SearchContext mirror;
  serve::QueryService service;
  bool on_secondary = false;

  Twin(const datasets::Dblp& d, bool rebinds)
      : backend(d.db, d.links, d.data_graph),
        primary(MakeContext(d, &backend)),
        mirror(MakeContext(d, &backend)),
        service(primary, ServiceOptionsForTwin()) {
    if (rebinds) secondary.emplace(MakeContext(d, &backend));
  }

  static serve::ServiceOptions ServiceOptionsForTwin() {
    serve::ServiceOptions options;
    options.num_threads = kServiceWorkers;
    return options;
  }

  /// Rebinds like Stack::RebindToOther (onto itself when there is no
  /// second context) and flushes the mirror's memo to match; returns how
  /// long RebindContext blocked, in ms.
  double Rebind() {
    const search::SearchContext& next =
        secondary && !on_secondary ? *secondary : primary;
    Clock::time_point start = Clock::now();
    service.RebindContext(next);
    double ms = MicrosBetween(start, Clock::now()) / 1e3;
    on_secondary = &next != &primary;
    mirror.partials_memo().BumpEpoch();
    return ms;
  }
};

/// Per-layer self time accumulated over the replay, in microseconds.
struct SelfTime {
  double net = 0, api = 0, serve = 0, search = 0, core = 0;
  double total() const { return net + api + serve + search + core; }
};

}  // namespace

std::vector<double> ReplayUntraced(Stack* stack, const Vocabulary& vocab,
                                   Workload workload, uint64_t seed) {
  const size_t rebind_every = RebindEvery(workload);
  RequestStream stream(vocab, workload, seed, Phase::kTrace);
  std::unique_ptr<WireConnection> wire = WireConnection::Connect(stack->port());
  std::vector<double> rtt;
  rtt.reserve(kTraceRequests);
  for (size_t i = 0; i < kTraceRequests; ++i) {
    api::QueryRequest request = stream.Next();
    if (rebind_every != 0 && i % rebind_every == rebind_every - 1) {
      stack->RebindToOther();
    }
    Clock::time_point start = Clock::now();
    wire->Send(request);
    std::optional<std::string> payload = wire->ReadFrame();
    if (!payload) throw std::runtime_error("untraced replay: connection lost");
    rtt.push_back(MicrosBetween(start, Clock::now()));
    api::DecodeResponse(*payload);
  }
  return rtt;
}

TracedResult RunTraced(Stack* stack, const Vocabulary& vocab,
                       Workload workload, uint64_t seed,
                       const search::SearchContext& reference) {
  const datasets::Dblp& dblp = stack->dblp();
  const size_t rebind_every = RebindEvery(workload);
  Twin twin(dblp, rebind_every != 0);
  {
    // Bring the twin level with the served stack's warm-up.
    RequestStream warm(vocab, workload, seed, Phase::kWarm);
    for (size_t i = 0; i < kWarmRequests; ++i) {
      api::QueryRequest request = warm.Next();
      if (!twin.service.Execute(request).stats.cache_hit) {
        twin.mirror.Execute(request);
      }
    }
  }

  TracedResult result;
  SpanLog log(&result.spans);
  RequestStream stream(vocab, workload, seed, Phase::kTrace);
  std::unique_ptr<WireConnection> wire = WireConnection::Connect(stack->port());
  core::OsBackend* ref_backend = reference.backend();
  core::DpScratch scratch;

  std::vector<double> wait_us, encode_us, decode_us, hit_us, miss_us,
      query_us, index_us, gen_us, select_us, rebind_ms, hits_per_query,
      os_nodes, select_ops, backend_selects, rtts;
  SelfTime self;
  const serve::Metrics served_before = stack->service().metrics();
  const core::PartialsMemoMetrics memo_before = stack->MemoTotals();

  for (size_t i = 0; i < kTraceRequests; ++i) {
    const uint64_t id = i;
    api::QueryRequest request = stream.Next();
    if (rebind_every != 0 && i % rebind_every == rebind_every - 1) {
      stack->RebindToOther();
      rebind_ms.push_back(twin.Rebind());
    }

    // net: the served round trip.
    Clock::time_point t0 = Clock::now();
    wire->Send(request);
    ++result.tally.sent;
    std::optional<std::string> payload = wire->ReadFrame();
    Clock::time_point t1 = Clock::now();
    if (!payload) throw std::runtime_error("traced replay: connection lost");
    double rtt = log.Add(id, "net.rtt", "", t0, t1);
    rtts.push_back(rtt);
    ++result.tally.received;
    result.tally.resp_bytes += FrameBytes(*payload);

    Clock::time_point d0 = Clock::now();
    api::StatusOr<api::QueryResponse> served = api::DecodeResponse(*payload);
    double decode = log.Add(id, "api.decode", "", d0, Clock::now());
    decode_us.push_back(decode);
    if (!served.ok() || !served->ok()) {
      ++result.tally.not_ok;
      continue;
    }
    const double compute = served->stats.compute_micros;
    wait_us.push_back(rtt - compute);
    if (i % kOracleStride == 0 && result.tally.samples.size() < kOracleCap) {
      result.tally.samples.emplace_back(request, *served);
    }

    // The served stack and the twin hit and miss in lockstep, so the
    // served answer says whether the search layer runs for this request.
    const bool cache_hit = served->stats.cache_hit;

    // search.index on every request: the lookup cost and hit count.
    // Parent: the served path's search.query, which only a miss runs.
    Clock::time_point x0 = Clock::now();
    std::vector<api::Hit> hits =
        reference.index().SearchQuery(request.keywords());
    double index = log.Add(id, "search.index", cache_hit ? "" : "search.query",
                           x0, Clock::now());
    index_us.push_back(index);
    hits_per_query.push_back(static_cast<double>(hits.size()));

    // core, per hit the miss computes. It runs before the twin and mirror
    // calls because in the served path generation is what first touches
    // the subject's tuples; whichever in-process call ran first would pay
    // for bringing them into this core's cache.
    double core_us = 0;
    if (!cache_hit) {
      const api::QueryOptions& options = request.options();
      for (const api::Hit& hit : ComputedHits(request, *served, hits)) {
        const gds::Gds& gds = reference.GdsFor(hit.relation);
        core::OsGenOptions gen;
        if (options.l > 0) gen.max_depth = static_cast<int32_t>(options.l) - 1;
        util::IoStats io_before = ref_backend->stats();
        Clock::time_point g0 = Clock::now();
        core::OsTree os =
            options.use_prelim && options.l > 0
                ? core::GeneratePrelimOs(reference.db(), gds, ref_backend,
                                         hit.tuple, options.l, gen)
                : core::GenerateCompleteOs(reference.db(), gds, ref_backend,
                                           hit.tuple, gen);
        double g = log.Add(id, "core.gen", "search.query", g0, Clock::now());
        gen_us.push_back(g);
        os_nodes.push_back(static_cast<double>(os.size()));
        backend_selects.push_back(static_cast<double>(
            (ref_backend->stats() - io_before).select_calls));
        core_us += g;
        const api::QueryResult* kept = ServedResult(*served, hit);
        if (kept != nullptr && kept->os.size() != os.size()) {
          throw std::logic_error("traced replay: core.gen diverged from the "
                                 "served answer");
        }
        if (options.l == 0) continue;
        core::SizeLStats stats;
        Clock::time_point c0 = Clock::now();
        core::Selection selection = core::RunSizeL(options.algorithm, os,
                                                   options.l, &scratch, &stats);
        double c =
            log.Add(id, "core.select", "search.query", c0, Clock::now());
        select_us.push_back(c);
        select_ops.push_back(static_cast<double>(stats.operations));
        core_us += c;
        if (kept != nullptr &&
            kept->selection.importance != selection.importance) {
          throw std::logic_error("traced replay: core.select diverged from "
                                 "the served answer");
        }
      }
    }

    // serve: the twin service, then the encode the server would do.
    Clock::time_point s0 = Clock::now();
    api::QueryResponse response = twin.service.Execute(request);
    double serve = log.Add(id, "serve.execute", "", s0, Clock::now());
    Clock::time_point e0 = Clock::now();
    std::string encoded = api::EncodeResponse(response);
    double encode = log.Add(id, "api.encode", "serve.execute", e0,
                            Clock::now());
    encode_us.push_back(encode);
    self.api += encode + decode;
    self.net += std::max(0.0, rtt - compute - encode);
    if (response.stats.cache_hit != cache_hit) {
      throw std::logic_error("traced replay: twin left lockstep");
    }
    if (cache_hit) {
      hit_us.push_back(serve);
      self.serve += serve;
      continue;
    }
    miss_us.push_back(serve);

    // search: the mirror context, whose memo sees the twin's lookups.
    const core::PartialsMemoMetrics mirror_before =
        twin.mirror.partials_memo().metrics();
    Clock::time_point q0 = Clock::now();
    twin.mirror.Execute(request);
    double query = log.Add(id, "search.query", "serve.execute", q0,
                           Clock::now());
    query_us.push_back(query);
    const core::PartialsMemoMetrics mirror_after =
        twin.mirror.partials_memo().metrics();
    uint64_t memo_misses = mirror_after.misses - mirror_before.misses;
    uint64_t lookups = (mirror_after.hits - mirror_before.hits) + memo_misses;
    // Only the hits the memo missed were generated and selected.
    double core_self =
        (lookups == 0 ? 1.0 : Ratio(memo_misses, lookups)) * core_us;
    self.core += core_self;
    self.search += std::max(0.0, query - index - core_self);
    self.serve += std::max(0.0, serve - query);
  }
  // hot_zipf and cold_scan never rebind in the replay; time a few
  // rebinds of the idle twin so serve.rebind_ms exists for every workload.
  if (rebind_ms.empty()) {
    for (int r = 0; r < 5; ++r) rebind_ms.push_back(twin.Rebind());
  }

  const serve::Metrics served = stack->service().metrics();
  const core::PartialsMemoMetrics memo = stack->MemoTotals();
  const net::ServerStats net_stats = stack->server().stats();
  uint64_t cache_hits = (served.cache.hits - served_before.cache.hits) +
                        (served.cache.coalesced_waits -
                         served_before.cache.coalesced_waits);
  uint64_t cache_misses = served.cache.misses - served_before.cache.misses;
  uint64_t memo_hits = memo.hits - memo_before.hits;
  uint64_t memo_misses = memo.misses - memo_before.misses;
  double total_self = self.total();
  result.mean_rtt_us = Mean(rtts);
  result.metrics = {
      {"net.wait_us.p50", Percentile(wait_us, 50), "us"},
      {"net.wait_us.p99", Percentile(wait_us, 99), "us"},
      {"net.frames_in", static_cast<double>(net_stats.frames_in), "count"},
      {"net.max_queued_bytes", static_cast<double>(net_stats.max_queued_bytes),
       "bytes"},
      {"api.encode_us.p50", Percentile(encode_us, 50), "us"},
      {"api.decode_us.p50", Percentile(decode_us, 50), "us"},
      {"api.resp_bytes.mean",
       Ratio(result.tally.resp_bytes, result.tally.received), "bytes"},
      {"serve.cache_hit_rate", Ratio(cache_hits, cache_hits + cache_misses),
       "ratio"},
      {"serve.hit_us.p50", Percentile(hit_us, 50), "us"},
      {"serve.miss_us.p50", Percentile(miss_us, 50), "us"},
      {"serve.miss_us.p99", Percentile(miss_us, 99), "us"},
      {"serve.cache_bytes_per_entry",
       Ratio(served.cache.approx_bytes, served.cache.entries), "bytes"},
      {"serve.rebind_ms", Median(rebind_ms), "ms"},
      {"search.memo_hit_rate", Ratio(memo_hits, memo_hits + memo_misses),
       "ratio"},
      {"search.memo_evictions",
       static_cast<double>(memo.evictions - memo_before.evictions), "count"},
      {"search.memo_bytes", static_cast<double>(memo.approx_bytes), "bytes"},
      {"search.query_us.p50", Percentile(query_us, 50), "us"},
      {"search.index_us.p50", Percentile(index_us, 50), "us"},
      {"search.hits_per_query", Mean(hits_per_query), "count"},
      {"core.gen_us.p50", Percentile(gen_us, 50), "us"},
      {"core.os_nodes.mean", Mean(os_nodes), "count"},
      {"core.select_us.p50", Percentile(select_us, 50), "us"},
      {"core.select_ops.mean", Mean(select_ops), "count"},
      {"core.backend_selects.mean", Mean(backend_selects), "count"},
      {"self_share.net", total_self > 0 ? self.net / total_self : 0, "ratio"},
      {"self_share.api", total_self > 0 ? self.api / total_self : 0, "ratio"},
      {"self_share.serve", total_self > 0 ? self.serve / total_self : 0,
       "ratio"},
      {"self_share.search", total_self > 0 ? self.search / total_self : 0,
       "ratio"},
      {"self_share.core", total_self > 0 ? self.core / total_self : 0,
       "ratio"},
  };
  return result;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"req\":%llu,\"span\":\"%s\",\"parent\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.request), s.name, s.parent,
                  s.start_us, s.dur_us);
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace osum::e2e
