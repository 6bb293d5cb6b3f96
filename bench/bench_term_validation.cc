// E1/E2/E3 — Table 3, Figure 3, Figure 4: term validation over a DBLP-like
// author corpus, sweeping the filtering algorithm (token filtering q ∈
// {2,3,4}; single-pass k-means k ∈ {5,10,20}), reporting runtime, the
// similarity checks the filtering leaves (`comparisons`) and accuracy
// (precision / recall / F-score), then accuracy as noise grows 20% → 40%
// (threshold lowered with noise, as in the paper).
//
// Every configuration runs through CleanDB::ValidateTerms, the engine's
// CLUSTER BY plan. Each author occurrence is a term; a term's repair is
// its most similar suggestion among the violations. A term whose best
// similarity is shared by two dictionary words is ambiguous: it gets no
// repair (a recall miss, not a false repair), and the E1 table counts such
// ties.
//
// Flags:
//   --smoke   tiny corpus (CTest smoke run)
//   --check   exit non-zero if tf q=2 precision at 20% noise is below 99%
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cleaning/cleandb.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "text/similarity.h"

namespace cleanm {
namespace {

struct Config {
  const char* label;
  FilteringAlgo algo;
  size_t q_or_k;
};

struct Accuracy {
  double precision, recall, fscore;
};

struct Run {
  Accuracy acc;
  double seconds;
  uint64_t comparisons;
  size_t violations;
  size_t ties;  ///< terms left unrepaired: two words share the best similarity
};

/// The author occurrences, the dictionary of clean names, and the ground
/// truth: each noisy occurrence absent from the dictionary → its clean name.
struct Corpus {
  Dataset authors;
  Dataset dict;
  std::map<std::string, std::string> truth;
};

// Set by --smoke: tiny corpus so CTest can verify the bench end to end.
size_t g_corpus_rows = 4000;
size_t g_author_pool = 800;

Corpus BuildCorpus(double noise_factor) {
  datagen::DblpOptions dopts;
  dopts.rows = g_corpus_rows;
  dopts.author_pool = g_author_pool;
  dopts.noise_fraction = 0.10;
  dopts.noise_factor = noise_factor;
  dopts.duplicate_fraction = 0;
  std::vector<std::pair<std::string, std::string>> noisy;
  const Dataset dblp = datagen::MakeDblp(dopts, &noisy);

  Corpus corpus;
  corpus.authors = Dataset(Schema{{"name", ValueType::kString}});
  const size_t author_col = dblp.schema().IndexOf("author").ValueOrDie();
  for (const auto& row : dblp.rows()) {
    for (const auto& name : row[author_col].AsList()) corpus.authors.Append({name});
  }
  // MakeDblp draws its clean pool like MakeAuthorDictionary with the same
  // seed; the ground truth's clean names are added so every repair exists.
  std::set<std::string> dict_set;
  const Dataset pool = datagen::MakeAuthorDictionary(g_author_pool, dopts.seed);
  for (const auto& row : pool.rows()) dict_set.insert(row[0].AsString());
  for (const auto& [d, c] : noisy) dict_set.insert(c);
  corpus.dict = Dataset(Schema{{"name", ValueType::kString}});
  for (const auto& name : dict_set) corpus.dict.Append({Value(name)});
  for (const auto& [d, c] : noisy) {
    if (!dict_set.count(d)) corpus.truth[d] = c;
  }
  return corpus;
}

/// Validates the corpus's author terms against its dictionary and scores
/// each term's best suggestion (most similar; none on a tie).
Run RunValidation(const Corpus& corpus, double theta, const Config& config) {
  CleanDBOptions opts;
  opts.shuffle_ns_per_byte = 0;  // compute only
  opts.filtering.q = config.q_or_k;
  opts.filtering.k = config.q_or_k;
  CleanDB db(opts);
  db.RegisterTable("authors", corpus.authors);
  db.RegisterTable("dict", corpus.dict);

  ClusterByClause cb;
  cb.op = config.algo;
  cb.metric = SimilarityMetric::kLevenshtein;
  cb.theta = theta;
  cb.term = FieldAccess(Var("a"), "name");
  Timer timer;
  const OpResult op = db.ValidateTerms("authors", "a", "dict", "name", cb).ValueOrDie();
  Run run{};
  run.seconds = timer.ElapsedSeconds();
  run.comparisons = db.cluster().session_metrics().Snapshot().comparisons;
  run.violations = op.violations.size();

  struct Best {
    std::string word;
    double sim;
    bool tied;  ///< another word has the same similarity
  };
  std::map<std::string, Best> best;
  for (const auto& v : op.violations) {
    const std::string term = v.GetField("term").ValueOrDie().AsString();
    const std::string word = v.GetField("suggestion").ValueOrDie().AsString();
    const double sim = LevenshteinSimilarity(term, word);
    auto [it, inserted] = best.emplace(term, Best{word, sim, false});
    Best& b = it->second;
    if (inserted || word == b.word) continue;
    if (sim > b.sim) {
      b = {word, sim, false};
    } else if (sim == b.sim) {
      b.tied = true;
    }
  }

  size_t correct = 0, suggested = 0;
  for (const auto& [term, b] : best) {
    if (b.tied) {
      run.ties++;
      continue;
    }
    suggested++;
    auto t = corpus.truth.find(term);
    if (t != corpus.truth.end() && t->second == b.word) correct++;
  }
  const size_t expected = corpus.truth.size();
  Accuracy& acc = run.acc;
  acc.precision = suggested ? static_cast<double>(correct) / suggested : 1.0;
  acc.recall = expected ? static_cast<double>(correct) / expected : 1.0;
  acc.fscore = (acc.precision + acc.recall) > 0
                   ? 2 * acc.precision * acc.recall / (acc.precision + acc.recall)
                   : 0;
  return run;
}

}  // namespace
}  // namespace cleanm

int main(int argc, char** argv) {
  using namespace cleanm;
  bool check = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_corpus_rows = 300;
      g_author_pool = 100;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\nusage: %s [--smoke] [--check]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  std::printf("=== E1/E2 — Table 3 + Figure 3: term validation (DBLP-like) ===\n");
  std::printf("paper: tf q=2 P=100%% R=97%% F=98.5 | tf q=3 P=100%% R=96.8%% | "
              "tf q=4 P=99.9%% R=95.9%% | kmeans k=5 R=95.7%% k=10 R=94.8%% "
              "k=20 R=94%%; tf faster than kmeans except q=2-ish regimes\n\n");

  const double noises[] = {0.20, 0.30, 0.40};
  std::vector<Corpus> corpora;
  for (double noise : noises) corpora.push_back(BuildCorpus(noise));
  const Corpus& corpus = corpora[0];
  std::printf("corpus: %zu author terms, %zu dictionary names, %zu ground-truth repairs\n\n",
              corpus.authors.num_rows(), corpus.dict.num_rows(), corpus.truth.size());

  const Config configs[] = {
      {"tf q=2", FilteringAlgo::kTokenFiltering, 2},
      {"tf q=3", FilteringAlgo::kTokenFiltering, 3},
      {"tf q=4", FilteringAlgo::kTokenFiltering, 4},
      {"kmeans k=5", FilteringAlgo::kKMeans, 5},
      {"kmeans k=10", FilteringAlgo::kKMeans, 10},
      {"kmeans k=20", FilteringAlgo::kKMeans, 20},
  };

  std::printf("%-12s %10s %12s %10s %6s %9s %9s %9s\n", "config", "time(s)",
              "comparisons", "violations", "ties", "prec", "recall", "fscore");
  double tf2_precision = 0;
  for (const auto& config : configs) {
    const Run run = RunValidation(corpus, 0.8, config);
    const Accuracy& acc = run.acc;
    std::printf("%-12s %10.3f %12llu %10zu %6zu %8.1f%% %8.1f%% %8.1f%%\n",
                config.label, run.seconds,
                static_cast<unsigned long long>(run.comparisons), run.violations,
                run.ties, acc.precision * 100, acc.recall * 100, acc.fscore * 100);
    if (config.algo == FilteringAlgo::kTokenFiltering && config.q_or_k == 2) {
      tf2_precision = acc.precision;
    }
  }

  std::printf("\n=== E3 — Figure 4: accuracy vs noise (theta lowered with noise) ===\n");
  std::printf("paper: accuracy drops slightly with noise; q=4 / k=20 drop the most\n\n");
  std::printf("%-12s", "config");
  for (double noise : noises) std::printf("  noise=%.0f%%", noise * 100);
  std::printf("\n");
  for (const auto& config : configs) {
    std::printf("%-12s", config.label);
    for (size_t n = 0; n < corpora.size(); n++) {
      const double theta = 0.8 - (noises[n] - 0.2);  // lower threshold as noise grows
      const Run run = RunValidation(corpora[n], theta, config);
      std::printf("   %7.1f%%", run.acc.fscore * 100);
    }
    std::printf("\n");
  }
  std::printf("\n[measured] precision stays ~100%% (in-dictionary terms are never "
              "repaired); recall falls with larger q/k and with noise — the Table 3 / "
              "Figure 4 shape.\n");

  if (check) {
    if (tf2_precision < 0.99) {
      std::fprintf(stderr, "CHECK FAILED: tf q=2 precision %.1f%% is below 99%%\n",
                   tf2_precision * 100);
      return 1;
    }
    std::printf("[check] tf q=2 precision %.1f%% >= 99%%\n", tf2_precision * 100);
  }
  return 0;
}
