#include "text/fastss.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "text/edit_distance.h"

namespace xclean {

namespace {

/// Seed shared by every variant hash of one tag: FNV offset with the tag
/// byte folded in. Hash(tag, s) == fold s's bytes into TagSeed(tag).
uint64_t TagSeed(uint8_t tag) {
  return (14695981039346656037ULL ^ tag) * 1099511628211ULL;
}

/// FNV-1a over a tag byte plus the variant bytes. Collisions are harmless
/// (verification filters), they only waste one EditDistanceBounded call.
uint64_t Fnv1a(uint8_t tag, std::string_view s) {
  uint64_t h = TagSeed(tag);
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

/// Recursively enumerates deletion variants; dedupes via a set (deleting
/// different positions of repeated characters yields the same string).
void EnumerateDeletions(const std::string& current, uint32_t remaining,
                        size_t min_pos,
                        std::unordered_set<std::string>& out) {
  out.insert(current);
  if (remaining == 0 || current.empty()) return;
  for (size_t i = min_pos; i < current.size(); ++i) {
    std::string next = current;
    next.erase(i, 1);
    // Deleting at position i then at j >= i covers all position subsets
    // exactly once (combinations, not permutations).
    EnumerateDeletions(next, remaining - 1, i, out);
  }
}

/// Query-side variant of EnumerateDeletions that never materializes the
/// variants: FNV-1a is prefix-incremental, so a keep/delete branch per
/// character folds each surviving byte into the running hash. Appends the
/// hash of every variant with at most `remaining` deletions (each variant
/// exactly once; repeated characters yield duplicate hashes, which cost
/// the caller only a repeated probe).
void EnumerateDeletionHashes(std::string_view s, size_t pos,
                             uint32_t remaining, uint64_t hash,
                             std::vector<uint64_t>& out) {
  if (pos == s.size()) {
    out.push_back(hash);
    return;
  }
  EnumerateDeletionHashes(
      s, pos + 1, remaining,
      (hash ^ static_cast<uint8_t>(s[pos])) * 1099511628211ULL, out);
  if (remaining > 0) {
    EnumerateDeletionHashes(s, pos + 1, remaining - 1, hash, out);
  }
}

/// One probe's hash bucket: the half-open posting range [begin, end) and
/// the position in it where the probe's search starts.
struct BucketRange {
  uint32_t begin;
  uint32_t end;
  uint32_t guess;
};

/// Per-thread working set of FastSsIndex::Find, reused across calls so a
/// lookup allocates nothing but its result once the buffers have grown.
struct FindScratch {
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> candidates;
  /// Bit w set: word w is already a candidate of the running call. Each
  /// call clears the bits it set, so the set is empty between calls and
  /// one scratch serves every index the thread queries (it grows to the
  /// largest vocabulary).
  std::vector<uint64_t> seen;
};

FindScratch& ThreadFindScratch() {
  static thread_local FindScratch scratch;
  return scratch;
}

inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

FastSsIndex::FastSsIndex() : FastSsIndex(Options()) {}

FastSsIndex::FastSsIndex(Options options) : options_(options) {}

std::vector<std::string> FastSsIndex::DeletionNeighborhood(
    std::string_view word, uint32_t max_deletions) {
  std::unordered_set<std::string> set;
  EnumerateDeletions(std::string(word), max_deletions, 0, set);
  return std::vector<std::string>(set.begin(), set.end());
}

uint64_t FastSsIndex::HashVariant(Tag tag, std::string_view variant) {
  return Fnv1a(static_cast<uint8_t>(tag), variant);
}

void FastSsIndex::EmitNeighborhood(Tag tag, std::string_view piece,
                                   uint32_t max_deletions, uint32_t word_id,
                                   std::vector<Posting>& out) {
  std::unordered_set<std::string> set;
  EnumerateDeletions(std::string(piece), max_deletions, 0, set);
  // Hash four independent variants per step (Fnv1aBatch4 is bit-identical
  // to HashVariant per lane); the interleaved chains hide the per-byte
  // multiply latency. Deletion variants are short, so the gain is modest —
  // the batch runs on every tier (the kernel is plain interleaved scalar
  // code everywhere; see Fnv1aBatch4) to keep scalar and vector builds on
  // one code path. Posting order within the word is irrelevant — Build
  // sorts the whole run afterwards.
  const uint64_t seed = TagSeed(static_cast<uint8_t>(tag));
  const simd::Level level = simd::ActiveLevel();
  auto it = set.begin();
  size_t left = set.size();
  while (left >= 4) {
    std::string_view batch[4];
    for (int l = 0; l < 4; ++l) batch[l] = *it++;
    uint64_t hashes[4];
    simd::Fnv1aBatch4(level, seed, batch, hashes);
    for (int l = 0; l < 4; ++l) out.push_back(Posting{hashes[l], word_id});
    left -= 4;
  }
  for (; it != set.end(); ++it) {
    out.push_back(Posting{HashVariant(tag, *it), word_id});
  }
}

bool FastSsIndex::EmitWord(uint32_t word_id, std::vector<Posting>& out) const {
  const uint32_t k = options_.max_ed;
  const std::string& w = words_[word_id];
  if (k > 0 && w.size() >= options_.partition_min_length) {
    // Partitioned representation: floor(k/2)-deletion neighborhoods of
    // the two halves (left half gets the ceiling of the length split).
    size_t h = (w.size() + 1) / 2;
    EmitNeighborhood(Tag::kLeft, std::string_view(w).substr(0, h), k / 2,
                     word_id, out);
    EmitNeighborhood(Tag::kRight, std::string_view(w).substr(h), k / 2,
                     word_id, out);
    return true;
  }
  EmitNeighborhood(Tag::kWhole, w, k, word_id, out);
  return false;
}

void FastSsIndex::Build(const std::vector<std::string>& words) {
  Build(words, nullptr);
}

void FastSsIndex::Build(const std::vector<std::string>& words,
                        ThreadPool* pool) {
  XCLEAN_CHECK(!built_);
  built_ = true;
  words_ = words;
  const size_t word_count = words_.size();
  if (word_count == 0) {
    FinalizeBuckets();
    return;
  }

  auto less = [](const Posting& a, const Posting& b) {
    return a.hash < b.hash || (a.hash == b.hash && a.word_id < b.word_id);
  };

  // Shard the vocabulary into contiguous word-id ranges; each shard emits
  // its neighborhoods into a private run and sorts it. Shard boundaries
  // depend only on the participant count, and the runs are merged below
  // with a total order whose only ties are bit-identical (hash, word_id)
  // pairs (hash collisions within one word), so the final array is
  // byte-identical for any thread count — including the serial one.
  const size_t participants =
      pool != nullptr ? pool->num_threads() + 1 : 1;
  const size_t num_shards = std::min(word_count, participants * 4);
  const size_t shard_size = (word_count + num_shards - 1) / num_shards;
  std::vector<std::vector<Posting>> runs(num_shards);
  std::vector<uint8_t> shard_partitioned(num_shards, 0);
  ParallelFor(
      pool, num_shards,
      [&](size_t begin, size_t end) {
        for (size_t shard = begin; shard < end; ++shard) {
          const size_t lo = shard * shard_size;
          const size_t hi = std::min(word_count, lo + shard_size);
          std::vector<Posting>& out = runs[shard];
          for (size_t id = lo; id < hi; ++id) {
            if (EmitWord(static_cast<uint32_t>(id), out)) {
              shard_partitioned[shard] = 1;
            }
          }
          std::sort(out.begin(), out.end(), less);
        }
      },
      ParallelForOptions{.min_chunk = 1, .chunks_per_thread = 2});
  for (uint8_t flag : shard_partitioned) {
    if (flag != 0) has_partitioned_ = true;
  }

  // Parallel pairwise merges of the sorted runs (log passes) instead of one
  // serial global sort, so the merge step scales with the emit step.
  while (runs.size() > 1) {
    const size_t pairs = runs.size() / 2;
    std::vector<std::vector<Posting>> next((runs.size() + 1) / 2);
    ParallelFor(
        pool, pairs,
        [&](size_t begin, size_t end) {
          for (size_t p = begin; p < end; ++p) {
            std::vector<Posting>& a = runs[2 * p];
            std::vector<Posting>& b = runs[2 * p + 1];
            std::vector<Posting> merged;
            merged.reserve(a.size() + b.size());
            std::merge(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(merged), less);
            next[p] = std::move(merged);
          }
        },
        ParallelForOptions{.min_chunk = 1, .chunks_per_thread = 1});
    if (runs.size() % 2 != 0) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  postings_ = std::move(runs.front());
  FinalizeBuckets();
}

void FastSsIndex::FinalizeBuckets() {
  XCLEAN_CHECK(postings_.size() <= UINT32_MAX);
  bucket_start_.assign(kNumBuckets + 1, 0);
  for (const Posting& p : postings_) {
    ++bucket_start_[(p.hash >> (64 - kBucketBits)) + 1];
  }
  for (size_t b = 1; b <= kNumBuckets; ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
}

uint64_t FastSsIndex::ApproxMemoryBytes() const {
  uint64_t bytes = postings_.capacity() * sizeof(Posting);
  for (const std::string& w : words_) bytes += sizeof(std::string) + w.size();
  return bytes;
}

std::vector<FastSsIndex::Match> FastSsIndex::Find(std::string_view query,
                                                  uint32_t max_ed) const {
  XCLEAN_CHECK(built_);
  XCLEAN_CHECK(max_ed <= options_.max_ed);
  FindScratch& scratch = ThreadFindScratch();

  // Length gates. A match needs |len(q) - len(w)| <= ed(q, w) <= max_ed,
  // and Build stores a word of at least partition_min_length characters
  // only in split form (when the index radius is nonzero). Whole-word
  // probes can therefore only reach words shorter than the threshold, and
  // split probes only words at least that long.
  const size_t partition = options_.partition_min_length;
  const bool probe_whole =
      options_.max_ed == 0 || query.size() < partition + max_ed;
  const bool probe_split =
      has_partitioned_ && query.size() + max_ed >= partition;

  // Every probe hash of the query, in one batch. Whole-word probes use the
  // max_ed-deletion neighborhood of the query. Split probes cover
  // partitioned words: for the split induced by the optimal alignment, one
  // half pair has edit distance <= floor(max_ed/2) (pigeonhole over the
  // two halves), so every plausible split point of the query around its
  // middle probes its halves' neighborhoods at the index's half radius.
  std::vector<uint64_t>& hashes = scratch.hashes;
  hashes.clear();
  if (probe_whole) {
    EnumerateDeletionHashes(query, 0, max_ed,
                            TagSeed(static_cast<uint8_t>(Tag::kWhole)),
                            hashes);
  }
  if (probe_split) {
    const uint32_t half_k = options_.max_ed / 2;
    const uint64_t left_seed = TagSeed(static_cast<uint8_t>(Tag::kLeft));
    const uint64_t right_seed = TagSeed(static_cast<uint8_t>(Tag::kRight));
    const size_t mid = (query.size() + 1) / 2;
    const size_t lo = mid > max_ed + 1 ? mid - max_ed - 1 : 0;
    const size_t hi = std::min(query.size(), mid + max_ed + 1);
    for (size_t g = lo; g <= hi; ++g) {
      EnumerateDeletionHashes(query.substr(0, g), 0, half_k, left_seed,
                              hashes);
      EnumerateDeletionHashes(query.substr(g), 0, half_k, right_seed,
                              hashes);
    }
  }
  // Repeated characters and neighbouring split points yield some hashes
  // more than once. They are probed again rather than sorted away: a
  // repeated probe finds its postings already in cache, which costs less
  // than sorting the batch, and the candidate set below drops the words
  // it finds a second time.

  // Where a probe's search starts. Hashes are uniform, so the bits below
  // the bucket bits give the hash's rank within its bucket (a skewed
  // bucket only makes the walk in pass 2 longer).
  auto locate = [this](uint64_t hash) {
    const size_t bucket = hash >> (64 - kBucketBits);
    const uint32_t begin = bucket_start_[bucket];
    const uint32_t end = bucket_start_[bucket + 1];
    const uint64_t rank = (hash >> (64 - 2 * kBucketBits)) &
                          ((uint64_t{1} << kBucketBits) - 1);
    return BucketRange{
        begin, end,
        begin + static_cast<uint32_t>(((end - begin) * rank) >> kBucketBits)};
  };

  // Pass 1: prefetch the posting each probe's search starts at, so the
  // probes' cache misses overlap instead of being taken one at a time in
  // pass 2 (which finds the bucket directory entries in cache).
  for (uint64_t hash : hashes) Prefetch(postings_.data() + locate(hash).guess);

  // Pass 2: walk from the guess to the hash's lower bound in its bucket
  // (a few postings) and collect the word ids of its postings, each word
  // once. Each new candidate's word is prefetched for the verification.
  std::vector<uint64_t>& seen = scratch.seen;
  if (seen.size() * 64 < words_.size()) seen.resize((words_.size() + 63) / 64);
  std::vector<uint32_t>& candidates = scratch.candidates;
  candidates.clear();
  for (uint64_t hash : hashes) {
    const BucketRange range = locate(hash);
    const Posting* begin = postings_.data() + range.begin;
    const Posting* end = postings_.data() + range.end;
    const Posting* it = postings_.data() + range.guess;
    if (it != end && it->hash < hash) {
      do {
        ++it;
      } while (it != end && it->hash < hash);
    } else {
      while (it != begin && (it - 1)->hash >= hash) --it;
    }
    for (; it != end && it->hash == hash; ++it) {
      const uint32_t id = it->word_id;
      const uint64_t bit = uint64_t{1} << (id % 64);
      if ((seen[id / 64] & bit) == 0) {
        seen[id / 64] |= bit;
        candidates.push_back(id);
        Prefetch(&words_[id]);
      }
    }
  }

  std::vector<Match> matches;
  for (uint32_t id : candidates) {
    uint32_t d = EditDistanceBounded(query, words_[id], max_ed);
    if (d <= max_ed) matches.push_back(Match{id, d});
  }
  // Only candidates' bits are set, so zeroing their words empties the set.
  for (uint32_t id : candidates) seen[id / 64] = 0;
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              return a.word_id < b.word_id;
            });
  return matches;
}

}  // namespace xclean
