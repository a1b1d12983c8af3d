// Robustness sweeps: random and mutated inputs must never crash, and
// well-formed pipelines must maintain their invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "common/cancel.h"
#include "common/random.h"
#include "core/query.h"
#include "core/xclean.h"
#include "data/dblp_gen.h"
#include "index/index_io.h"
#include "rpc/frame.h"
#include "rpc/wire.h"
#include "shard/shard_server.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xclean {
namespace {

/// Random byte soup: the parser must reject or accept without crashing,
/// and never accept something that then breaks the tree invariants.
TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF00D);
  const char alphabet[] = "<>/=\"' abcdet&;![]-?";
  for (int round = 0; round < 2000; ++round) {
    std::string input;
    size_t len = rng.Uniform(120);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    Result<XmlTree> tree = ParseXmlString(input);
    if (tree.ok()) {
      // Whatever parsed must be internally consistent.
      const XmlTree& t = tree.value();
      for (NodeId n = 0; n < t.size(); ++n) {
        ASSERT_LE(t.subtree_end(n), t.size() - 1);
        ASSERT_GE(t.subtree_end(n), n);
        ASSERT_EQ(t.dewey(n).size(), t.depth(n));
      }
    }
  }
}

/// Mutations of a valid document: flip/delete/insert bytes.
TEST(ParserFuzzTest, MutatedDocumentsNeverCrash) {
  const std::string base =
      "<dblp><article key=\"a&amp;1\"><author>Jane</author>"
      "<title>trees &#65; <!-- c --> <![CDATA[raw]]></title></article>"
      "</dblp>";
  Rng rng(0xBEEF);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = base;
    size_t mutations = 1 + rng.Uniform(4);
    for (size_t m = 0; m < mutations; ++m) {
      if (mutated.empty()) break;
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    Result<XmlTree> tree = ParseXmlString(mutated);
    (void)tree;  // either outcome is fine; no crash is the assertion
  }
}

/// Round-trip property on random generated trees: Parse(Write(t)) == t.
TEST(ParserFuzzTest, GeneratedTreesRoundTrip) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DblpGenOptions gen;
    gen.num_publications = 40;
    gen.seed = seed;
    XmlTree original = GenerateDblp(gen);
    Result<XmlTree> reparsed = ParseXmlString(WriteXml(original));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    ASSERT_EQ(original.size(), reparsed->size());
    for (NodeId n = 0; n < original.size(); ++n) {
      ASSERT_EQ(original.label(n), reparsed->label(n));
      ASSERT_EQ(original.text(n), reparsed->text(n));
      ASSERT_EQ(original.path_id(n), reparsed->path_id(n));
    }
  }
}

/// Index-file fuzz: random corruption of a saved index must never crash
/// the loader (checksum catches most; header mutations the rest).
TEST(IndexIoFuzzTest, CorruptedIndexFilesNeverCrash) {
  DblpGenOptions gen;
  gen.num_publications = 50;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  std::ostringstream out;
  ASSERT_TRUE(SaveIndex(*index, out).ok());
  std::string bytes = out.str();

  Rng rng(0xCAFE);
  for (int round = 0; round < 300; ++round) {
    std::string corrupted = bytes;
    size_t mutations = 1 + rng.Uniform(8);
    for (size_t m = 0; m < mutations; ++m) {
      size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] = static_cast<char>(rng.Uniform(256));
    }
    if (rng.Bernoulli(0.3)) {
      corrupted.resize(rng.Uniform(corrupted.size() + 1));
    }
    std::istringstream in(corrupted);
    Result<std::unique_ptr<XmlIndex>> loaded = LoadIndex(in);
    (void)loaded;  // no crash is the assertion
  }
}

/// Query fuzz against a real index: random garbage queries must never
/// crash any cleaner, and every returned suggestion must satisfy the
/// public invariants.
TEST(SuggestFuzzTest, RandomQueriesKeepInvariants) {
  DblpGenOptions gen;
  gen.num_publications = 400;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  Rng rng(0xD1CE);

  for (Semantics semantics :
       {Semantics::kNodeType, Semantics::kSlca, Semantics::kElca}) {
    XCleanOptions options;
    options.gamma = 50;
    options.semantics = semantics;
    XClean cleaner(*index, options);
    for (int round = 0; round < 120; ++round) {
      Query query;
      size_t words = rng.Uniform(4);
      for (size_t w = 0; w < words; ++w) {
        std::string word;
        size_t len = 1 + rng.Uniform(12);
        for (size_t i = 0; i < len; ++i) {
          word.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
        query.keywords.push_back(std::move(word));
      }
      std::vector<Suggestion> suggestions = cleaner.Suggest(query);
      ASSERT_LE(suggestions.size(), options.top_k);
      for (size_t i = 0; i < suggestions.size(); ++i) {
        ASSERT_GT(suggestions[i].entity_count, 0u);
        ASSERT_EQ(suggestions[i].words.size(), query.size());
        ASSERT_GE(suggestions[i].score, 0.0);
        if (i > 0) {
          ASSERT_LE(suggestions[i].score, suggestions[i - 1].score);
        }
      }
    }
  }
}

/// Batch-path fuzz: SuggestBatch through one shared scratch must agree with
/// independent per-query evaluation — the scratch's arenas and memo tables
/// must never let one query's state leak into the next.
TEST(SuggestFuzzTest, BatchMatchesIndividualSuggest) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  Rng rng(0xBA7C4);
  XCleanOptions options;
  options.gamma = 50;
  XClean cleaner(*index, options);

  for (int round = 0; round < 20; ++round) {
    std::vector<Query> batch;
    size_t n = 1 + rng.Uniform(8);
    for (size_t q = 0; q < n; ++q) {
      Query query;
      size_t words = rng.Uniform(3);
      for (size_t w = 0; w < words; ++w) {
        std::string word;
        size_t len = 1 + rng.Uniform(10);
        for (size_t i = 0; i < len; ++i) {
          word.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
        query.keywords.push_back(std::move(word));
      }
      batch.push_back(std::move(query));
    }

    QueryScratch scratch;
    std::vector<XCleanRunStats> stats;
    std::vector<std::vector<Suggestion>> got =
        cleaner.SuggestBatch(batch, &scratch, &stats);
    ASSERT_EQ(got.size(), batch.size());
    ASSERT_EQ(stats.size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      std::vector<Suggestion> solo = cleaner.SuggestWithStats(batch[q],
                                                              nullptr);
      ASSERT_EQ(got[q].size(), solo.size()) << "query " << q;
      for (size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(got[q][i].words, solo[i].words) << "query " << q;
        // Bit-identical scores: the scratch changes where state lives, not
        // one floating-point operation.
        EXPECT_EQ(got[q][i].score, solo[i].score) << "query " << q;
        EXPECT_EQ(got[q][i].entity_count, solo[i].entity_count);
        EXPECT_EQ(got[q][i].result_type, solo[i].result_type);
      }
    }
  }
}

/// Scratch-reuse fuzz: the same query pushed twice through one scratch must
/// come out bit-identical — warmed memo tables and recycled arenas may not
/// perturb a single floating-point operation.
TEST(SuggestFuzzTest, ScratchReuseIsBitIdentical) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  Rng rng(0x5C4A7);

  for (Semantics semantics :
       {Semantics::kNodeType, Semantics::kSlca, Semantics::kElca}) {
    XCleanOptions options;
    options.gamma = 50;
    options.semantics = semantics;
    XClean cleaner(*index, options);
    QueryScratch scratch;
    std::vector<Suggestion> first, second;
    for (int round = 0; round < 40; ++round) {
      Query query;
      size_t words = 1 + rng.Uniform(3);
      for (size_t w = 0; w < words; ++w) {
        std::string word;
        size_t len = 1 + rng.Uniform(10);
        for (size_t i = 0; i < len; ++i) {
          word.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
        query.keywords.push_back(std::move(word));
      }
      cleaner.SuggestWithScratch(query, scratch, &first, nullptr);
      cleaner.SuggestWithScratch(query, scratch, &second, nullptr);
      ASSERT_EQ(first.size(), second.size());
      for (size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].words, second[i].words);
        ASSERT_EQ(first[i].score, second[i].score);
        ASSERT_EQ(first[i].error_weight, second[i].error_weight);
        ASSERT_EQ(first[i].entity_count, second[i].entity_count);
        ASSERT_EQ(first[i].result_type, second[i].result_type);
      }
    }
  }
}

/// Bounded-parse fuzz: arbitrary byte soup through ParseQueryBounded must
/// never crash, every rejection must be InvalidArgument, and every
/// accepted parse must agree with the unbounded parser and respect the
/// configured limits.
TEST(QueryFuzzTest, BoundedParseNeverCrashesAndEnforcesLimits) {
  DblpGenOptions gen;
  gen.num_publications = 50;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  const Tokenizer& tokenizer = index->tokenizer();
  QueryParseLimits limits;
  limits.max_bytes = 48;
  limits.max_keywords = 3;

  Rng rng(0xB0B5);
  const char alphabet[] = "abcdefgh   ZY.,!-<>&;0123456789\t\n";
  for (int round = 0; round < 4000; ++round) {
    std::string input;
    size_t len = rng.Uniform(96);  // half the rounds exceed max_bytes
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    Result<Query> bounded = ParseQueryBounded(input, tokenizer, limits);
    if (input.size() > limits.max_bytes) {
      ASSERT_FALSE(bounded.ok());
      ASSERT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    Query reference = ParseQuery(input, tokenizer);
    if (reference.size() > limits.max_keywords) {
      ASSERT_FALSE(bounded.ok());
      ASSERT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
    } else {
      ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
      ASSERT_EQ(bounded.value(), reference);
      ASSERT_LE(bounded.value().size(), limits.max_keywords);
    }
  }
}

/// Budget fuzz: random work budgets attached to random queries must never
/// crash, every result list must keep the public invariants, and a token
/// with an unlimited budget must be bit-identical to no token at all —
/// cancellation changes when the algorithm stops, never what it computes.
TEST(SuggestFuzzTest, RandomBudgetsKeepInvariants) {
  DblpGenOptions gen;
  gen.num_publications = 300;
  auto index = XmlIndex::Build(GenerateDblp(gen));
  Rng rng(0xB4D6E7);

  for (Semantics semantics :
       {Semantics::kNodeType, Semantics::kSlca, Semantics::kElca}) {
    XCleanOptions options;
    options.gamma = 50;
    options.semantics = semantics;
    XClean cleaner(*index, options);
    QueryScratch scratch;
    for (int round = 0; round < 60; ++round) {
      Query query;
      size_t words = 1 + rng.Uniform(3);
      for (size_t w = 0; w < words; ++w) {
        std::string word;
        size_t len = 1 + rng.Uniform(10);
        for (size_t i = 0; i < len; ++i) {
          word.push_back(static_cast<char>('a' + rng.Uniform(26)));
        }
        query.keywords.push_back(std::move(word));
      }

      QueryBudget budget;
      budget.max_postings = rng.Uniform(2000);    // 0 = unlimited
      budget.max_candidates = rng.Uniform(50);    // 0 = unlimited
      CancelToken token(budget);
      std::vector<Suggestion> budgeted;
      XCleanRunStats stats;
      cleaner.SuggestWithScratch(query, scratch, &budgeted, &stats, &token);
      ASSERT_LE(budgeted.size(), options.top_k);
      for (size_t i = 0; i < budgeted.size(); ++i) {
        ASSERT_GT(budgeted[i].entity_count, 0u);
        ASSERT_EQ(budgeted[i].words.size(), query.size());
        if (i > 0) {
          ASSERT_LE(budgeted[i].score, budgeted[i - 1].score);
        }
      }
      if (!stats.truncated) {
        ASSERT_EQ(stats.cancel_cause, CancelCause::kNone);
      }

      // Unlimited budget == no budget, bit for bit.
      CancelToken unlimited;
      std::vector<Suggestion> with_token, without_token;
      cleaner.SuggestWithScratch(query, scratch, &with_token, nullptr,
                                 &unlimited);
      cleaner.SuggestWithScratch(query, scratch, &without_token, nullptr);
      ASSERT_EQ(with_token.size(), without_token.size());
      for (size_t i = 0; i < with_token.size(); ++i) {
        ASSERT_EQ(with_token[i].words, without_token[i].words);
        ASSERT_EQ(with_token[i].score, without_token[i].score);
        ASSERT_EQ(with_token[i].entity_count, without_token[i].entity_count);
      }
    }
  }
}

/// Random byte soup against the RPC frame decoder: whatever arrives, the
/// decoder must never crash, never over-read, and never buffer unbounded
/// garbage — random bytes almost surely fail the magic/header checks, so
/// the stream must go fatal with its buffer discarded.
TEST(RpcFrameFuzzTest, RandomBytesNeverCrashOrAccumulate) {
  Rng rng(0xFEEDFACE);
  for (int round = 0; round < 2000; ++round) {
    rpc::FrameDecoder decoder;
    const size_t len = rng.Uniform(200);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.Uniform(256)));
    }
    // Feed in random chunk sizes: framing must be chunking-independent.
    size_t fed = 0;
    while (fed < input.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.Uniform(64), input.size() - fed);
      decoder.Feed(input.data() + fed, chunk);
      fed += chunk;
      for (int step = 0; step < 8; ++step) {
        const rpc::DecodeEvent event = decoder.Next();
        if (event.outcome == rpc::DecodeOutcome::kNeedMore) break;
        if (event.outcome == rpc::DecodeOutcome::kFatal) {
          // Fatal is sticky and the buffer is dropped.
          ASSERT_EQ(decoder.buffered_bytes(), 0u);
          ASSERT_TRUE(decoder.fatal());
          break;
        }
      }
    }
    // Nothing a random stream produces may hold more than one frame cap.
    ASSERT_LE(decoder.buffered_bytes(),
              rpc::kDefaultMaxPayload + rpc::kFrameHeaderSize);
  }
}

/// Mutations of valid frames: flip bytes of a well-formed stream. Every
/// event must be one of the four clean outcomes; any frame surfaced as
/// kFrame must carry an intact payload checksum by construction.
TEST(RpcFrameFuzzTest, MutatedFramesDecodeCleanly) {
  Rng rng(0xDEC0DE);
  std::string base;
  rpc::EncodeFrame(rpc::FrameType::kRequest, 7, "first payload", base);
  rpc::EncodeFrame(rpc::FrameType::kResponse, 8,
                   std::string(300, 'r'), base);
  rpc::EncodeFrame(rpc::FrameType::kCancel, 9, "", base);

  for (int round = 0; round < 2000; ++round) {
    std::string mutated = base;
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1u << rng.Uniform(8));
    }
    rpc::FrameDecoder decoder;
    decoder.Feed(mutated.data(), mutated.size());
    for (int step = 0; step < 16; ++step) {
      const rpc::DecodeEvent event = decoder.Next();
      if (event.outcome == rpc::DecodeOutcome::kNeedMore ||
          event.outcome == rpc::DecodeOutcome::kFatal) {
        break;
      }
      // kFrame and kCorruptFrame both consume the frame and keep going.
    }
  }
}

/// Random and mutated payloads against the wire decoders: DataLoss or a
/// fully-populated struct, never a crash and never an unbounded
/// allocation (the decode caps bound every length field).
TEST(RpcWireFuzzTest, RandomPayloadsNeverCrash) {
  Rng rng(0xBEEFCAFE);
  const auto now = std::chrono::steady_clock::now();
  for (int round = 0; round < 4000; ++round) {
    const size_t len = rng.Uniform(300);
    std::string payload;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    shard::ShardRequest request;
    const Status rs = rpc::DecodeShardRequest(payload, now, &request);
    if (!rs.ok()) {
      ASSERT_EQ(rs.code(), StatusCode::kDataLoss);
    }
    shard::ShardResponse response;
    const Status ps = rpc::DecodeShardResponse(payload, &response);
    if (!ps.ok()) {
      ASSERT_EQ(ps.code(), StatusCode::kDataLoss);
    }
  }
}

TEST(RpcWireFuzzTest, MutatedResponsePayloadsNeverCrash) {
  Rng rng(0xFACADE);
  shard::ShardResponse canned;
  canned.status = Status::Ok();
  canned.shard_id = 2;
  canned.generation = 9;
  for (uint32_t i = 0; i < 4; ++i) {
    PartialCandidate p;
    p.tokens = {i, i + 1};
    p.error_weight = 0.25 * (i + 1);
    p.sum = 1.5 * i;
    p.entity_count = i;
    p.lca_total = i + 1;
    p.result_type = i;
    canned.partials.push_back(p);
  }
  std::string base;
  rpc::EncodeShardResponse(canned, base);

  for (int round = 0; round < 4000; ++round) {
    std::string mutated = base;
    const size_t edits = 1 + rng.Uniform(3);
    for (size_t e = 0; e < edits; ++e) {
      switch (rng.Uniform(3)) {
        case 0:  // flip
          mutated[rng.Uniform(mutated.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
          break;
        case 1:  // truncate
          mutated.resize(rng.Uniform(mutated.size() + 1));
          break;
        default:  // append garbage
          mutated.push_back(static_cast<char>(rng.Uniform(256)));
          break;
      }
      if (mutated.empty()) break;
    }
    shard::ShardResponse decoded;
    const Status status = rpc::DecodeShardResponse(mutated, &decoded);
    if (status.ok()) {
      // A mutation that still decodes must at least obey the caps.
      ASSERT_LE(decoded.partials.size(), size_t{1} << 20);
      for (const PartialCandidate& p : decoded.partials) {
        ASSERT_LE(p.tokens.size(), 64u);
      }
    } else {
      ASSERT_EQ(status.code(), StatusCode::kDataLoss);
    }
  }
}

}  // namespace
}  // namespace xclean
