// String similarity metrics and tokenization.
//
// Section 3.1: denial constraints, deduplication, and term validation all
// reduce to similarity joins, so the cost of a cleaning task is dominated by
// (a) how many pairs are compared and (b) how fast one comparison is.
// This module provides the comparison kernels; src/cluster provides the
// pair-pruning (token filtering / k-means).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cleanm {

/// Levenshtein edit distance with the standard two-row DP and an optional
/// early-exit bound: if the distance provably exceeds `max_bound` the
/// function returns max_bound + 1 without finishing the DP.
size_t LevenshteinDistance(std::string_view a, std::string_view b,
                           size_t max_bound = SIZE_MAX);

/// Normalized Levenshtein similarity in [0, 1]:
/// 1 - distance / max(|a|, |b|). Two empty strings are 100% similar.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Thresholded check: true iff LevenshteinSimilarity(a, b) >= theta.
/// Uses the distance bound for an early exit, so it is cheaper than
/// computing the full similarity when the strings are far apart.
bool LevenshteinSimilarAtLeast(std::string_view a, std::string_view b, double theta);

/// Jaccard similarity of the q-gram sets of the two strings.
double JaccardQGramSimilarity(std::string_view a, std::string_view b, size_t q = 2);

/// Jaccard similarity of whitespace-token sets.
double JaccardTokenSimilarity(std::string_view a, std::string_view b);

/// Splits `s` into its q-grams (sliding windows of length q). Strings
/// shorter than q yield the whole string as their single token.
std::vector<std::string> QGrams(std::string_view s, size_t q);

/// QGrams as views into `s`, which must outlive them.
std::vector<std::string_view> QGramViews(std::string_view s, size_t q);

/// Splits on runs of whitespace.
std::vector<std::string> WhitespaceTokens(std::string_view s);

/// Euclidean distance between equal-length numeric vectors.
double EuclideanDistance(const std::vector<double>& a, const std::vector<double>& b);

/// Supported metric identifiers as they appear in CleanM queries
/// (DEDUP(op, metric, theta, ...)).
enum class SimilarityMetric {
  kLevenshtein,
  kJaccard,
};

/// Parses "LD" / "levenshtein" / "jaccard" (case-insensitive).
/// Returns false on unknown names.
bool ParseSimilarityMetric(std::string_view name, SimilarityMetric* out);

/// The metric's name as CleanM queries write it ("LD", "jaccard").
const char* SimilarityMetricName(SimilarityMetric metric);

/// Dispatches to the chosen string metric.
double StringSimilarity(SimilarityMetric metric, std::string_view a, std::string_view b);

/// Thresholded check under the chosen string metric: true iff the
/// similarity of `a` and `b` is at least `theta`. Levenshtein takes the
/// early-exit distance bound (LevenshteinSimilarAtLeast). The kernel of the
/// `similar` builtin and of the Pairs operator.
bool StringSimilarAtLeast(SimilarityMetric metric, std::string_view a,
                          std::string_view b, double theta);

}  // namespace cleanm
