#include "text/similarity.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>

#include "common/status.h"

namespace cleanm {

size_t LevenshteinDistance(std::string_view a, std::string_view b, size_t max_bound) {
  if (a.size() > b.size()) std::swap(a, b);
  // |len(a) - len(b)| is a lower bound on the distance.
  if (b.size() - a.size() > max_bound) return max_bound + 1;
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); i++) prev[i] = i;
  for (size_t j = 1; j <= b.size(); j++) {
    cur[0] = j;
    size_t row_min = cur[0];
    for (size_t i = 1; i <= a.size(); i++) {
      const size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
      row_min = std::min(row_min, cur[i]);
    }
    if (row_min > max_bound) return max_bound + 1;  // cannot recover
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const size_t d = LevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

bool LevenshteinSimilarAtLeast(std::string_view a, std::string_view b, double theta) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return true;
  // similarity >= theta  <=>  distance <= (1 - theta) * longest.
  // The epsilon guards against (1 - 0.8) * 5 = 0.999... flooring to 0.
  const auto bound =
      static_cast<size_t>((1.0 - theta) * static_cast<double>(longest) + 1e-9);
  return LevenshteinDistance(a, b, bound) <= bound;
}

std::vector<std::string_view> QGramViews(std::string_view s, size_t q) {
  CLEANM_CHECK(q > 0);
  std::vector<std::string_view> grams;
  if (s.size() < q) {
    grams.push_back(s);
    return grams;
  }
  grams.reserve(s.size() - q + 1);
  for (size_t i = 0; i + q <= s.size(); i++) grams.push_back(s.substr(i, q));
  return grams;
}

std::vector<std::string> QGrams(std::string_view s, size_t q) {
  const std::vector<std::string_view> views = QGramViews(s, q);
  return std::vector<std::string>(views.begin(), views.end());
}

std::vector<std::string> WhitespaceTokens(std::string_view s) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) i++;
    const size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) i++;
    if (i > start) tokens.emplace_back(s.substr(start, i - start));
  }
  return tokens;
}

namespace {
double JaccardOfSets(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) inter++;
  }
  const size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}
}  // namespace

double JaccardQGramSimilarity(std::string_view a, std::string_view b, size_t q) {
  return JaccardOfSets(QGrams(a, q), QGrams(b, q));
}

double JaccardTokenSimilarity(std::string_view a, std::string_view b) {
  return JaccardOfSets(WhitespaceTokens(a), WhitespaceTokens(b));
}

double EuclideanDistance(const std::vector<double>& a, const std::vector<double>& b) {
  CLEANM_CHECK(a.size() == b.size());
  double sum = 0;
  for (size_t i = 0; i < a.size(); i++) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool ParseSimilarityMetric(std::string_view name, SimilarityMetric* out) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "ld" || lower == "levenshtein") {
    *out = SimilarityMetric::kLevenshtein;
    return true;
  }
  if (lower == "jaccard") {
    *out = SimilarityMetric::kJaccard;
    return true;
  }
  return false;
}

const char* SimilarityMetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kLevenshtein: return "LD";
    case SimilarityMetric::kJaccard: return "jaccard";
  }
  return "?";
}

double StringSimilarity(SimilarityMetric metric, std::string_view a, std::string_view b) {
  switch (metric) {
    case SimilarityMetric::kLevenshtein: return LevenshteinSimilarity(a, b);
    case SimilarityMetric::kJaccard: return JaccardQGramSimilarity(a, b);
  }
  return 0;
}

bool StringSimilarAtLeast(SimilarityMetric metric, std::string_view a,
                          std::string_view b, double theta) {
  if (metric == SimilarityMetric::kLevenshtein) {
    return LevenshteinSimilarAtLeast(a, b, theta);
  }
  return StringSimilarity(metric, a, b) >= theta;
}

}  // namespace cleanm
