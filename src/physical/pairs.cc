// The physical Pairs stage: the similarity step of DEDUP and CLUSTER BY.
//
// A grouping monoid (token filtering, k-means) puts a record into every
// group it has a key for, so a candidate pair sits in every group its two
// members share. Unnesting each group twice and filtering therefore
// verified a pair once per shared group. This stage verifies it once: per
// group it renders each member's comparison text and derives its keys
// once, enumerates the pairs by index (ordered mode sorts the members once
// instead of comparing records per pair), and verifies a pair only in its
// owner group (algebra.h, PairOwnerRank). In two-collection mode a left
// member with an equal right member pairs with nothing: a term found
// verbatim in the dictionary is clean. The algebra reference evaluator
// applies the same rules, so both emit each violating pair exactly once,
// carrying its owner group's fields, at any node count and morsel size.
#include <algorithm>
#include <memory>

#include "physical/planner.h"

namespace cleanm {

namespace {

using engine::Partition;

/// One group member as the stage sees it: rendered and keyed once.
struct Member {
  const Value* value = nullptr;
  Value text;               ///< comparison text (string), or null
  bool comparable = false;  ///< text is a string or null
  uint64_t hash = 0;        ///< value->Hash(), the pair seed's input
  /// Group-key hashes, ascending, and the keys in the same order; empty
  /// under exact keying. Kept apart so the owner walk scans plain words.
  std::vector<uint64_t> key_hashes;
  std::vector<Value> keys;

  std::string_view Text() const {
    return text.is_null() ? std::string_view() : std::string_view(text.AsString());
  }
};

class PairStage {
 public:
  PairStage(const PairSpec& spec, CompiledExpr left, CompiledExpr right,
            CompiledExpr key, CompiledExpr text, CompiledExpr term,
            QueryMetrics* metrics)
      : spec_(spec),
        left_(std::move(left)),
        right_(std::move(right)),
        key_(std::move(key)),
        text_(std::move(text)),
        term_(std::move(term)),
        owned_only_(spec.keys.algo != FilteringAlgo::kExactKey),
        metrics_(metrics) {}

  void Run(const Value& group, const TupleSink& inner, Partition* out) const {
    const Value key = key_(group);
    const uint64_t key_hash = key.Hash();
    const Value left_coll = left_(group);
    // Two-collection mode: a left member equal to a right member pairs
    // with nothing (PairSpec), so it is dropped before it is rendered.
    const Value right_coll = spec_.ordered ? Value::Null() : right_(group);
    const std::vector<Member> right = Prepare(right_coll, {});
    std::vector<Member> left = Prepare(left_coll, right);
    uint64_t verified = 0;
    auto consider = [&](const Member& a, const Member& b) {
      if (!a.comparable || !b.comparable) return;
      if (owned_only_ && !Owns(a, b, key, key_hash)) return;
      verified++;
      if (!StringSimilarAtLeast(spec_.metric, a.Text(), b.Text(), spec_.theta)) return;
      ValueStruct padded = group.AsStruct();
      padded.emplace_back(spec_.left_var, *a.value);
      padded.emplace_back(spec_.right_var, *b.value);
      inner(Value(std::move(padded)), out);
    };

    if (spec_.ordered) {
      // Sort once; members of one Compare-equal run never pair (p1 < p2
      // is strict), every other index pair i < j is exactly one p1 < p2.
      std::stable_sort(left.begin(), left.end(), [](const Member& a, const Member& b) {
        return a.value->Compare(*b.value) < 0;
      });
      std::vector<size_t> run(left.size(), 0);
      for (size_t i = 1; i < left.size(); i++) {
        run[i] = run[i - 1] + (left[i - 1].value->Compare(*left[i].value) != 0);
      }
      for (size_t i = 0; i < left.size(); i++) {
        for (size_t j = i + 1; j < left.size(); j++) {
          if (run[i] != run[j]) consider(left[i], left[j]);
        }
      }
    } else {
      for (const auto& a : left) {
        for (const auto& b : right) consider(a, b);
      }
    }
    if (metrics_ != nullptr && verified > 0) metrics_->comparisons += verified;
  }

 private:
  /// The members an Unnest of `coll` would bind, rendered and keyed,
  /// except those Compare-equal to a member of `pairs_with_none`.
  std::vector<Member> Prepare(const Value& coll,
                              const std::vector<Member>& pairs_with_none) const {
    std::vector<Member> members;
    if (coll.is_null()) return members;
    const bool list = coll.type() == ValueType::kList;
    const size_t n = list ? coll.AsList().size() : 1;
    members.reserve(n);
    for (size_t i = 0; i < n; i++) {
      const Value* value = list ? &coll.AsList()[i] : &coll;
      if (std::any_of(pairs_with_none.begin(), pairs_with_none.end(),
                      [&](const Member& o) { return o.value->Compare(*value) == 0; })) {
        continue;
      }
      Member& m = members.emplace_back();
      m.value = value;
      const Value bound(ValueStruct{{spec_.member, *m.value}});
      m.text = text_(bound);
      m.comparable = m.text.is_null() || m.text.type() == ValueType::kString;
      if (!owned_only_ || !m.comparable) continue;
      m.hash = m.value->Hash();
      // A member whose term joins no group (an error emits no key) owns
      // no pair.
      std::vector<Value> keys;
      (void)ForEachGroupKey(spec_.keys, term_(bound),
                            [&](Value key) { keys.push_back(std::move(key)); });
      std::vector<std::pair<uint64_t, size_t>> order;
      order.reserve(keys.size());
      for (size_t k = 0; k < keys.size(); k++) order.emplace_back(keys[k].Hash(), k);
      std::sort(order.begin(), order.end());
      m.key_hashes.reserve(order.size());
      m.keys.reserve(order.size());
      for (const auto& [h, k] : order) {
        m.key_hashes.push_back(h);
        m.keys.push_back(std::move(keys[k]));
      }
    }
    return members;
  }

  /// The owner rule over the members' hash-sorted key lists: walks the
  /// keys both share; `key` owns the pair when it is among them and none
  /// ranks lower (equal ranks: lower key order wins).
  static bool Owns(const Member& a, const Member& b, const Value& key,
                   uint64_t key_hash) {
    const uint64_t seed = PairSeed(a.hash, b.hash);
    const uint64_t own_rank = PairOwnerRank(seed, key_hash);
    bool shares_key = false;
    const std::vector<uint64_t>& ah = a.key_hashes;
    const std::vector<uint64_t>& bh = b.key_hashes;
    size_t i = 0, j = 0;
    while (i < ah.size() && j < bh.size()) {
      const uint64_t h = ah[i];
      if (h < bh[j]) {
        i++;
        continue;
      }
      if (h > bh[j]) {
        j++;
        continue;
      }
      size_t i_end = i + 1, j_end = j + 1;
      while (i_end < ah.size() && ah[i_end] == h) i_end++;
      while (j_end < bh.size() && bh[j_end] == h) j_end++;
      const uint64_t rank = PairOwnerRank(seed, h);
      if (rank <= own_rank) {
        // Equal hashes are a shared key only when the keys are equal.
        for (size_t x = i; x < i_end; x++) {
          const Value& k = a.keys[x];
          bool shared = false;
          for (size_t y = j; y < j_end && !shared; y++) shared = k.Equals(b.keys[y]);
          if (!shared) continue;
          if (rank < own_rank) return false;
          const int order = k.Compare(key);
          if (order < 0) return false;
          if (order == 0 && k.Equals(key)) shares_key = true;
        }
      }
      i = i_end;
      j = j_end;
    }
    return shares_key;
  }

  const PairSpec spec_;
  const CompiledExpr left_, right_, key_, text_, term_;
  const bool owned_only_;
  QueryMetrics* const metrics_;
};

}  // namespace

Result<TupleSink> CompilePairs(const AlgOp& op, const TupleLayout& layout,
                               const CompileEnv& env, TupleSink inner) {
  const PairSpec& spec = op.pairs;
  if (spec.keys.algo == FilteringAlgo::kKMeans && spec.keys.centers.empty()) {
    return Status::InvalidArgument("k-means Pairs executed without sampled centers");
  }
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr left, CompileExpr(spec.left, layout, env));
  CompiledExpr right;
  if (!spec.ordered) {
    CLEANM_ASSIGN_OR_RETURN(right, CompileExpr(spec.right, layout, env));
  }
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr key, CompileExpr(Var(spec.key_name), layout, env));
  const TupleLayout member_layout{spec.member};
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr text, CompileExpr(spec.text, member_layout, env));
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr term,
                          CompileExpr(spec.keys.term, member_layout, env));
  auto stage = std::make_shared<const PairStage>(spec, std::move(left), std::move(right),
                                                 std::move(key), std::move(text),
                                                 std::move(term), env.metrics);
  return TupleSink([stage, inner](Value t, Partition* out) { stage->Run(t, inner, out); });
}

}  // namespace cleanm
