#ifndef MVPTREE_METRIC_EDIT_DISTANCE_H_
#define MVPTREE_METRIC_EDIT_DISTANCE_H_

#include <string>

/// \file
/// String metrics for non-spatial domains.
///
/// The paper motivates distance-based indexing precisely because it works
/// "for domains where the data is non-spatial ... such as in the case of
/// text databases which generally use the edit distance (which is metric)"
/// (§3.1). Levenshtein distance (unit-cost insert/delete/substitute) is the
/// canonical example and is also the discrete integer metric assumed by the
/// Burkhard-Keller tree (§3.2, [BK73]).

namespace mvp::metric {

/// Unit-cost Levenshtein distance over bytes (any value, '\0' and >= 0x80
/// included), computed with Myers' bit-vector algorithm. With m the shorter
/// and n the longer length: O(ceil(m/64) * n) time. For m <= 64 it uses one
/// machine word and a per-thread match-mask table, with no heap allocation;
/// longer strings allocate 2 KiB of match masks per 64 bytes of the shorter
/// string. Thread-safe.
unsigned EditDistance(const std::string& a, const std::string& b);

/// Levenshtein with early exit: returns any value > bound as soon as the
/// true distance provably exceeds `bound` (the lengths differ by more than
/// `bound`, or the running score can no longer fall back to it). The
/// returned value equals the true distance whenever that distance <= bound.
unsigned BoundedEditDistance(const std::string& a, const std::string& b,
                             unsigned bound);

/// Metric functor over std::string (satisfies MetricFor<Levenshtein,
/// std::string>); distances are integers returned as double.
struct Levenshtein {
  double operator()(const std::string& a, const std::string& b) const {
    return static_cast<double>(EditDistance(a, b));
  }
};

/// Hamming distance over equal-length strings: number of differing
/// positions. Metric on the space of strings of one fixed length.
struct Hamming {
  double operator()(const std::string& a, const std::string& b) const;
};

}  // namespace mvp::metric

#endif  // MVPTREE_METRIC_EDIT_DISTANCE_H_
