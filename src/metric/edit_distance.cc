#include "metric/edit_distance.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace mvp::metric {

namespace {

// Myers' bit-vector edit distance in Hyyrö's formulation ("Explaining and
// extending the bit-parallel approximate string matching algorithm of
// Myers", 2001). The DP matrix has one row per byte of the shorter string
// `p` (the pattern) and one column per byte of the longer string `t`. Each
// column is held as two bit vectors of vertical deltas, Pv (+1) and Mv (-1),
// one bit per row, packed 64 rows to a word. A column advances in O(1) word
// operations per block, and the distance is tracked at the pattern's last
// row. Results are the exact Levenshtein distance, identical to the
// quadratic DP.

using Word = std::uint64_t;

// Advances one 64-row block by one text column. `eq` is the block's match
// mask for the column's byte. On entry `hp`/`hn` (each 0 or 1) say whether
// the horizontal delta entering the block above its first row is +1 or -1;
// on return they hold the delta leaving row `out_row`. Bits above the
// pattern's last row hold garbage that never reaches a lower row: additions
// carry upward and the shifts move upward. Deltas travel as bits, not as a
// signed int, so the step has no data-dependent branch.
inline void Advance(Word& pv, Word& mv, Word eq, Word& hp, Word& hn,
                    unsigned out_row) {
  const Word xv = eq | mv;
  eq |= hn;
  const Word xh = (((eq & pv) + pv) ^ pv) | eq;
  Word ph = mv | ~(xh | pv);
  Word mh = pv & xh;
  const Word hp_out = (ph >> out_row) & 1;
  const Word hn_out = (mh >> out_row) & 1;
  ph = (ph << 1) | hp;
  mh = (mh << 1) | hn;
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  hp = hp_out;
  hn = hn_out;
}

inline unsigned char Byte(char c) { return static_cast<unsigned char>(c); }

// Walks the text `t` once over a pattern of `m` rows in `blocks` 64-row
// blocks: `peq[byte * blocks + b]` is block b's match mask for `byte`, and
// `pv`/`mv` hold each block's vertical deltas (all +1 on entry). Each column
// advances its blocks top to bottom; the horizontal delta leaving block b's
// bottom row enters block b+1, and the last block's delta at the pattern's
// last row moves the score. Bounded form: stops with a value > `bound` as
// soon as the score, which can fall by at most one per remaining column,
// provably ends above `bound`.
template <bool kBounded>
inline unsigned Sweep(const Word* peq, Word* pv, Word* mv, std::size_t blocks,
                      std::size_t m, const std::string& t, unsigned bound) {
  const std::size_t last_block = blocks - 1;
  const auto last = static_cast<unsigned>((m - 1) % 64);
  std::int64_t score = static_cast<std::int64_t>(m);
  std::int64_t remaining = static_cast<std::int64_t>(t.size());
  for (const char c : t) {
    const Word* eq = peq + Byte(c) * blocks;
    // Row 0 of the DP is 0, 1, 2, ...: +1 enters every column.
    Word hp = 1;
    Word hn = 0;
    for (std::size_t b = 0; b < last_block; ++b) {
      Advance(pv[b], mv[b], eq[b], hp, hn, 63);
    }
    Advance(pv[last_block], mv[last_block], eq[last_block], hp, hn, last);
    score += static_cast<std::int64_t>(hp) - static_cast<std::int64_t>(hn);
    --remaining;
    if constexpr (kBounded) {
      if (score - remaining > bound) break;
    }
  }
  return static_cast<unsigned>(score);
}

// Match masks for patterns of at most 64 bytes. Only the entries of the
// pattern's bytes are set, and they are cleared again before the call
// returns, so the table is all-zero between calls and needs no memset.
thread_local std::array<Word, 256> tls_peq{};

// `p` (1 <= |p| <= 64) against `t` (|t| >= |p|): one word per column, no
// heap allocation.
template <bool kBounded>
unsigned OneWord(const std::string& p, const std::string& t, unsigned bound) {
  std::array<Word, 256>& peq = tls_peq;
  for (std::size_t i = 0; i < p.size(); ++i) {
    peq[Byte(p[i])] |= Word{1} << i;
  }
  Word pv = ~Word{0};
  Word mv = 0;
  const unsigned score =
      Sweep<kBounded>(peq.data(), &pv, &mv, 1, p.size(), t, bound);
  for (const char c : p) peq[Byte(c)] = 0;
  return score;
}

// The blocked form for patterns longer than 64 bytes: 2 KiB of match masks
// per block.
template <bool kBounded>
unsigned MultiWord(const std::string& p, const std::string& t,
                   unsigned bound) {
  const std::size_t blocks = (p.size() + 63) / 64;
  std::vector<Word> state(256 * blocks + 2 * blocks, 0);
  Word* const peq = state.data();
  Word* const pv = peq + 256 * blocks;
  Word* const mv = pv + blocks;
  for (std::size_t i = 0; i < p.size(); ++i) {
    peq[Byte(p[i]) * blocks + i / 64] |= Word{1} << (i % 64);
  }
  std::fill(pv, pv + blocks, ~Word{0});
  return Sweep<kBounded>(peq, pv, mv, blocks, p.size(), t, bound);
}

template <bool kBounded>
unsigned Distance(const std::string& a, const std::string& b, unsigned bound) {
  const std::string& p = a.size() < b.size() ? a : b;
  const std::string& t = a.size() < b.size() ? b : a;
  if (p.empty()) return static_cast<unsigned>(t.size());
  return p.size() <= 64 ? OneWord<kBounded>(p, t, bound)
                        : MultiWord<kBounded>(p, t, bound);
}

}  // namespace

unsigned EditDistance(const std::string& a, const std::string& b) {
  return Distance<false>(a, b, 0);
}

unsigned BoundedEditDistance(const std::string& a, const std::string& b,
                             unsigned bound) {
  const std::size_t gap =
      a.size() < b.size() ? b.size() - a.size() : a.size() - b.size();
  // Lengths alone already decide it.
  if (gap > bound) return bound + 1;
  return Distance<true>(a, b, bound);
}

double Hamming::operator()(const std::string& a, const std::string& b) const {
  MVP_DCHECK(a.size() == b.size());
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += a[i] != b[i] ? 1u : 0u;
  return static_cast<double>(diff);
}

}  // namespace mvp::metric
