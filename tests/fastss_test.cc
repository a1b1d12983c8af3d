#include "text/fastss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "text/edit_distance.h"

namespace xclean {
namespace {

std::vector<std::string> BruteForce(const std::vector<std::string>& words,
                                    const std::string& query,
                                    uint32_t max_ed) {
  std::vector<std::string> out;
  for (const std::string& w : words) {
    if (EditDistance(query, w) <= max_ed) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> IndexFind(const FastSsIndex& index,
                                   const std::string& query,
                                   uint32_t max_ed) {
  const std::vector<FastSsIndex::Match> matches = index.Find(query, max_ed);
  // Find returns each word once, in ascending word id order.
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LT(matches[i - 1].word_id, matches[i].word_id) << query;
  }
  std::vector<std::string> out;
  for (const FastSsIndex::Match& m : matches) {
    out.push_back(index.word(m.word_id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FastSsTest, DeletionNeighborhoodSizeAndContent) {
  auto n0 = FastSsIndex::DeletionNeighborhood("abc", 0);
  EXPECT_EQ(n0, (std::vector<std::string>{"abc"}));

  auto n1 = FastSsIndex::DeletionNeighborhood("abc", 1);
  std::set<std::string> s1(n1.begin(), n1.end());
  EXPECT_EQ(s1, (std::set<std::string>{"abc", "bc", "ac", "ab"}));

  // Repeated characters dedupe: "aab" - 1 deletion -> {aab, ab, aa}.
  auto n2 = FastSsIndex::DeletionNeighborhood("aab", 1);
  std::set<std::string> s2(n2.begin(), n2.end());
  EXPECT_EQ(s2, (std::set<std::string>{"aab", "ab", "aa"}));
}

TEST(FastSsTest, ExactMatchAtZero) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({"tree", "trie", "trees"});
  auto matches = index.Find("tree", 0);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(index.word(matches[0].word_id), "tree");
  EXPECT_EQ(matches[0].distance, 0u);
}

TEST(FastSsTest, PaperExampleVariants) {
  FastSsIndex index(FastSsIndex::Options{1, 13});
  index.Build({"tree", "trees", "trie", "icde", "icdt", "forest"});
  EXPECT_EQ(IndexFind(index, "tree", 1),
            (std::vector<std::string>{"tree", "trees", "trie"}));
  EXPECT_EQ(IndexFind(index, "icdt", 1),
            (std::vector<std::string>{"icde", "icdt"}));
}

TEST(FastSsTest, ReportsCorrectDistances) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({"health", "wealth", "stealth"});
  for (const auto& m : index.Find("health", 2)) {
    EXPECT_EQ(m.distance, EditDistance("health", index.word(m.word_id)));
  }
}

TEST(FastSsTest, EmptyIndex) {
  FastSsIndex index(FastSsIndex::Options{2, 13});
  index.Build({});
  EXPECT_TRUE(index.Find("anything", 2).empty());
}

/// Property: Find == brute force, across index radii and partition
/// thresholds (small thresholds force the partitioned code path), at every
/// call radius up to the index's.
struct FastSsParam {
  uint32_t max_ed;
  size_t partition_min_length;
  /// Longest vocabulary word. Below partition_min_length the index holds
  /// no partitioned word at all.
  size_t max_word_length = 18;
};

class FastSsPropertyTest : public ::testing::TestWithParam<FastSsParam> {};

TEST_P(FastSsPropertyTest, MatchesBruteForce) {
  const FastSsParam param = GetParam();
  Rng rng(500 + param.max_ed * 10 + param.partition_min_length +
          param.max_word_length * 1000);

  auto random_char = [&] { return static_cast<char>('a' + rng.Uniform(5)); };
  auto random_word = [&](size_t min_len, size_t max_len) {
    std::string s;
    size_t len = min_len + rng.Uniform(max_len - min_len + 1);
    for (size_t i = 0; i < len; ++i) s.push_back(random_char());
    return s;
  };

  std::set<std::string> vocab_set;
  while (vocab_set.size() < 300) {
    vocab_set.insert(random_word(3, param.max_word_length));
  }
  std::vector<std::string> vocab(vocab_set.begin(), vocab_set.end());

  FastSsIndex index(
      FastSsIndex::Options{param.max_ed, param.partition_min_length});
  index.Build(vocab);

  std::vector<std::string> queries;
  for (int q = 0; q < 100; ++q) queries.push_back(random_word(2, 20));

  // Find probes whole words only for queries shorter than
  // partition_min_length + max_ed and split halves only for queries of at
  // least partition_min_length - max_ed characters. Cover every query
  // length from one below the lower gate to the upper one, with random
  // queries and with vocabulary words edited up to the index radius (those
  // have matches across the gates, including exact ones). Lengths no
  // vocabulary word can reach are left out.
  const size_t k = param.max_ed;
  const size_t p = param.partition_min_length;
  const size_t min_len = p > k + 1 ? p - k - 1 : 1;
  const size_t max_len = std::min(p + k, param.max_word_length + k + 1);
  for (size_t len = min_len; len <= max_len; ++len) {
    for (int q = 0; q < 8; ++q) queries.push_back(random_word(len, len));
    int derived = 0;
    for (const std::string& w : vocab) {
      if (derived == 8) break;
      if (w.size() + k < len || w.size() > len + k) continue;
      std::string query = w;
      const size_t edits = rng.Uniform(k + 1);
      for (size_t e = 0; e < edits; ++e) {
        const size_t pos = rng.Uniform(query.size() + 1);
        if (query.size() < len) {
          query.insert(query.begin() + pos, random_char());
        } else if (query.size() > len) {
          query.erase(query.begin() + std::min(pos, query.size() - 1));
        } else if (pos < query.size()) {
          query[pos] = random_char();
        }
      }
      if (query.size() != len) continue;
      queries.push_back(query);
      ++derived;
    }
  }

  for (const std::string& query : queries) {
    for (uint32_t ed = 0; ed <= param.max_ed; ++ed) {
      EXPECT_EQ(IndexFind(index, query, ed), BruteForce(vocab, query, ed))
          << "query=" << query << " ed=" << ed
          << " k=" << param.max_ed << " part=" << param.partition_min_length
          << " longest=" << param.max_word_length;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndPartitions, FastSsPropertyTest,
    ::testing::Values(FastSsParam{1, 13}, FastSsParam{2, 13},
                      FastSsParam{2, 6}, FastSsParam{3, 9},
                      FastSsParam{3, 13}, FastSsParam{3, 100},
                      // No partitioned words: every word is shorter than
                      // the threshold, queries still cross both gates.
                      FastSsParam{3, 13, 12}, FastSsParam{2, 9, 8}));

TEST(FastSsTest, PartitionedUsesFewerPostingsForLongWords) {
  std::vector<std::string> long_words;
  Rng rng(4242);
  for (int i = 0; i < 50; ++i) {
    std::string w;
    for (int j = 0; j < 16; ++j) {
      w.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    long_words.push_back(w);
  }
  FastSsIndex full(FastSsIndex::Options{3, 100});
  full.Build(long_words);
  FastSsIndex partitioned(FastSsIndex::Options{3, 9});
  partitioned.Build(long_words);
  // Full Del_3 of a 16-char word is ~C(16,3) entries; two 1-deletion halves
  // are ~18. The space claim of Sec. V-A in action:
  EXPECT_LT(partitioned.posting_count() * 10, full.posting_count());
}

}  // namespace
}  // namespace xclean
