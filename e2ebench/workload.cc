#include "workload.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <utility>

#include "api/codec.h"
#include "util/string_util.h"

namespace osum::e2e {

namespace {

bool IsNumber(const std::string& token) {
  return !token.empty() &&
         std::all_of(token.begin(), token.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

/// Tokens by descending document frequency (ties alphabetical), so the
/// Zipf head is the broadest terms whatever the dataset scale.
std::vector<std::string> ByFrequency(const std::map<std::string, size_t>& df) {
  std::vector<std::pair<size_t, std::string>> ranked;
  ranked.reserve(df.size());
  for (const auto& [token, count] : df) ranked.emplace_back(count, token);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& entry : ranked) out.push_back(std::move(entry.second));
  return out;
}

/// Surname = the second name token ("Alice Papadias 1234" -> "papadias").
std::string Surname(const std::string& name) {
  std::vector<std::string> tokens = util::TokenizeWords(name);
  return tokens.size() >= 2 ? tokens[1] : tokens.front();
}

constexpr std::array<const char*, 3> kOverlapPrefixes = {"efficient",
                                                         "scalable", "fast"};
constexpr std::array<const char*, 4> kOverlapTopics = {
    "keyword search", "graph mining", "similarity search", "object summaries"};

// Zipf skew of hot_zipf. At s = 1.0 the LRU result cache sits right at
// the 0.8 hit-rate line over the ~2,100 keys; 1.1 keeps the hot set
// comfortably inside it.
constexpr double kHotZipfSkew = 1.1;

uint64_t StreamSeed(uint64_t seed, Phase phase) {
  // SplitMix64 finalizer over (seed, phase): nearby seeds and phases give
  // unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull +
               static_cast<uint64_t>(phase) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "hot_zipf") return Workload::kHotZipf;
  if (name == "overlap_mix") return Workload::kOverlapMix;
  if (name == "cold_scan") return Workload::kColdScan;
  return std::nullopt;
}

double DblpScale(Workload workload) {
  return workload == Workload::kColdScan ? 4.0 : 1.0;
}

size_t RebindEvery(Workload workload) {
  return workload == Workload::kOverlapMix ? 1000 : 0;
}

Vocabulary Vocabulary::Build(const datasets::Dblp& dblp, Workload workload) {
  Vocabulary vocab;
  const rel::Relation& authors = dblp.db.relation(dblp.author);
  const rel::Relation& papers = dblp.db.relation(dblp.paper);
  switch (workload) {
    case Workload::kHotZipf: {
      std::map<std::string, size_t> surname_df;
      for (rel::TupleId t = 0; t < authors.num_tuples(); ++t) {
        ++surname_df[Surname(authors.StringValue(t, 0))];
      }
      std::map<std::string, size_t> title_df;
      for (rel::TupleId t = 0; t < papers.num_tuples(); ++t) {
        std::vector<std::string> tokens =
            util::TokenizeWords(papers.StringValue(t, 0));
        std::sort(tokens.begin(), tokens.end());
        tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
        for (const std::string& token : tokens) {
          // Paper numbers are unique per title and "in" is in every one.
          if (!IsNumber(token) && token != "in") ++title_df[token];
        }
      }
      // Surnames and title terms alternate at the head; full names form
      // the long tail that keeps the key space larger than the cache.
      std::vector<std::string> surnames = ByFrequency(surname_df);
      std::vector<std::string> terms = ByFrequency(title_df);
      for (size_t i = 0; i < std::max(surnames.size(), terms.size()); ++i) {
        if (i < surnames.size()) vocab.hot_ranked.push_back(surnames[i]);
        if (i < terms.size()) vocab.hot_ranked.push_back(terms[i]);
      }
      for (rel::TupleId t = 0; t < authors.num_tuples(); ++t) {
        vocab.hot_ranked.push_back(authors.StringValue(t, 0));
      }
      break;
    }
    case Workload::kOverlapMix: {
      // Author ids double as productivity rank: the first ids are the
      // prolific authors with the largest OSs.
      for (rel::TupleId t = 0; t < 8 && t < authors.num_tuples(); ++t) {
        vocab.overlap_terms.push_back(authors.StringValue(t, 0));
      }
      vocab.overlap_terms.push_back("faloutsos");
      for (rel::TupleId t = 3; t < 6 && t < authors.num_tuples(); ++t) {
        vocab.overlap_terms.push_back(Surname(authors.StringValue(t, 0)));
      }
      for (const char* prefix : kOverlapPrefixes) {
        for (const char* topic : kOverlapTopics) {
          vocab.overlap_terms.push_back(std::string(prefix) + " " + topic);
        }
      }
      break;
    }
    case Workload::kColdScan: {
      vocab.author_names.reserve(authors.num_tuples());
      for (rel::TupleId t = 0; t < authors.num_tuples(); ++t) {
        vocab.author_names.push_back(authors.StringValue(t, 0));
      }
      break;
    }
  }
  return vocab;
}

RequestStream::RequestStream(const Vocabulary& vocab, Workload workload,
                             uint64_t seed, Phase phase)
    : vocab_(vocab), workload_(workload), rng_(StreamSeed(seed, phase)) {
  if (workload_ == Workload::kHotZipf) {
    zipf_.emplace(vocab_.hot_ranked.size(), kHotZipfSkew);
  }
}

api::QueryRequest RequestStream::Next() {
  const uint64_t index = issued_++;
  switch (workload_) {
    case Workload::kHotZipf: {
      const std::string& keyword = vocab_.hot_ranked[zipf_->Sample(&rng_)];
      return api::QueryRequest(keyword).WithL(10).WithMaxResults(5);
    }
    case Workload::kOverlapMix: {
      const std::string& keyword =
          vocab_.overlap_terms[rng_.NextU64(vocab_.overlap_terms.size())];
      size_t l = rng_.NextBernoulli(0.5) ? 10 : 15;
      size_t max_results = 1 + rng_.NextU64(100);
      api::ResultRanking ranking = rng_.NextBernoulli(0.5)
                                       ? api::ResultRanking::kSubjectImportance
                                       : api::ResultRanking::kSummaryImportance;
      return api::QueryRequest(keyword)
          .WithL(l)
          .WithMaxResults(max_results)
          .WithRanking(ranking);
    }
    case Workload::kColdScan: {
      if (cursor_ == order_.size()) {
        // A fresh seeded pass: no author repeats within a pass.
        order_.resize(vocab_.author_names.size());
        for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
        rng_.Shuffle(&order_);
        cursor_ = 0;
      }
      static constexpr std::array<core::SizeLAlgorithm, 3> kAlgorithms = {
          core::SizeLAlgorithm::kTopPath, core::SizeLAlgorithm::kBottomUp,
          core::SizeLAlgorithm::kDp};
      size_t l = 5 * (1 + rng_.NextU64(10));
      return api::QueryRequest(vocab_.author_names[order_[cursor_++]])
          .WithL(l)
          .WithMaxResults(10)
          .WithAlgorithm(kAlgorithms[index % kAlgorithms.size()])
          .WithPrelim(true);
    }
  }
  return api::QueryRequest();
}

uint64_t StreamDigest(const Vocabulary& vocab, Workload workload,
                      uint64_t seed, size_t count) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (Phase phase : {Phase::kWarm, Phase::kClosed, Phase::kOpen,
                      Phase::kTrace}) {
    RequestStream stream(vocab, workload, seed, phase);
    for (size_t i = 0; i < count; ++i) {
      for (unsigned char c : api::EncodeRequest(stream.Next())) {
        hash = (hash ^ c) * 0x100000001B3ull;
      }
    }
  }
  return hash;
}

}  // namespace osum::e2e
