// Tests for the LLM query profiler: cue analysis, noise/confidence model,
// feedback learning, latency and cost behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/llm/engine.h"
#include "src/profiler/profiler.h"
#include "src/runner/runner.h"
#include "src/sim/simulator.h"

namespace metis {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest()
      : dataset_(GetOrGenerateDataset("musique", 120, "cohere-embed-v3-sim", 7)),
        api_(&sim_, Gpt4oApi(), 7),
        profiler_(&sim_, &api_, &dataset_->db().metadata(), Gpt4oProfilerParams(), 7) {}

  std::shared_ptr<const Dataset> dataset_;
  Simulator sim_;
  ApiLlmClient api_;
  QueryProfiler profiler_;
};

TEST_F(ProfilerTest, RecoversStructureOnWellSpecifiedQueries) {
  int joint_right = 0, complex_right = 0, pieces_right = 0, n = 0;
  for (const RagQuery& q : dataset_->queries()) {
    if (q.underspecified) {
      continue;
    }
    QueryProfiler::Outcome out = profiler_.Estimate(q);
    ++n;
    joint_right += out.profile.requires_joint == q.requires_joint;
    complex_right += out.profile.high_complexity == q.high_complexity;
    pieces_right += std::abs(out.profile.num_info_pieces - q.num_facts) <= 1;
  }
  ASSERT_GT(n, 50);
  EXPECT_GT(static_cast<double>(joint_right) / n, 0.90);
  EXPECT_GT(static_cast<double>(complex_right) / n, 0.90);
  EXPECT_GT(static_cast<double>(pieces_right) / n, 0.85);
}

TEST_F(ProfilerTest, UnderspecifiedQueriesAreMuchHarder) {
  int under_bad = 0, under_n = 0, spec_bad = 0, spec_n = 0;
  for (const RagQuery& q : dataset_->queries()) {
    QueryProfiler::Outcome out = profiler_.Estimate(q);
    if (q.underspecified) {
      ++under_n;
      under_bad += out.was_bad;
    } else {
      ++spec_n;
      spec_bad += out.was_bad;
    }
  }
  ASSERT_GT(under_n, 3);
  EXPECT_GT(static_cast<double>(under_bad) / under_n,
            static_cast<double>(spec_bad) / spec_n + 0.1);
}

TEST_F(ProfilerTest, ConfidenceCorrelatesWithGoodness) {
  double conf_good = 0, conf_bad = 0;
  int n_good = 0, n_bad = 0;
  for (int round = 0; round < 5; ++round) {
    for (const RagQuery& q : dataset_->queries()) {
      QueryProfiler::Outcome out = profiler_.Estimate(q);
      if (out.was_bad) {
        conf_bad += out.profile.confidence;
        ++n_bad;
      } else {
        conf_good += out.profile.confidence;
        ++n_good;
      }
    }
  }
  ASSERT_GT(n_bad, 5);
  EXPECT_GT(conf_good / n_good, conf_bad / n_bad + 0.1);
}

TEST_F(ProfilerTest, SummaryRangeWithinPaperBounds) {
  for (const RagQuery& q : dataset_->queries()) {
    QueryProfiler::Outcome out = profiler_.Estimate(q);
    EXPECT_GE(out.profile.summary_min_tokens, 30);
    EXPECT_LE(out.profile.summary_max_tokens, 200);
    EXPECT_LT(out.profile.summary_min_tokens, out.profile.summary_max_tokens);
    EXPECT_GE(out.profile.num_info_pieces, 1);
    EXPECT_LE(out.profile.num_info_pieces, 10);
  }
}

TEST_F(ProfilerTest, BiggerChunksRaiseSummaryBudget) {
  auto finsec = GetOrGenerateDataset("kg_rag_finsec", 40, "cohere-embed-v3-sim", 7);
  Simulator sim;
  ApiLlmClient api(&sim, Gpt4oApi(), 7);
  QueryProfiler finsec_profiler(&sim, &api, &finsec->db().metadata(), Gpt4oProfilerParams(), 7);

  double small_chunks = 0, big_chunks = 0;
  int n = 0;
  for (int i = 0; i < 40; ++i) {
    small_chunks += profiler_.Estimate(dataset_->queries()[static_cast<size_t>(i)])
                        .profile.summary_min_tokens;
    big_chunks += finsec_profiler.Estimate(finsec->queries()[static_cast<size_t>(i)])
                      .profile.summary_min_tokens;
    ++n;
  }
  EXPECT_GT(big_chunks / n, small_chunks / n);
}

TEST_F(ProfilerTest, AsyncProfileCarriesLatency) {
  bool done = false;
  profiler_.ProfileAsync(dataset_->queries()[0], [&](QueryProfiler::Outcome out) {
    EXPECT_GT(out.delay_seconds, 0.01);
    EXPECT_LT(out.delay_seconds, 1.0);
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(api_.calls(), 0u);
  EXPECT_GT(api_.total_cost_usd(), 0);
}

TEST_F(ProfilerTest, FeedbackReducesErrorRate) {
  // Error rate over underspecified queries before vs after feedback.
  auto bad_rate = [&]() {
    int bad = 0, n = 0;
    for (int round = 0; round < 10; ++round) {
      for (const RagQuery& q : dataset_->queries()) {
        if (!q.underspecified) {
          continue;
        }
        bad += profiler_.Estimate(q).was_bad;
        ++n;
      }
    }
    return static_cast<double>(bad) / n;
  };
  double before = bad_rate();
  for (int i = 0; i < 4; ++i) {
    profiler_.AddGoldenFeedback(dataset_->queries()[static_cast<size_t>(i)], 3, 60);
  }
  EXPECT_EQ(profiler_.feedback_prompts(), 4);
  double after = bad_rate();
  EXPECT_LT(after, before);
}

TEST_F(ProfilerTest, FeedbackKeepsOnlyLastFourPrompts) {
  for (int i = 0; i < 10; ++i) {
    profiler_.AddGoldenFeedback(dataset_->queries()[0], i, 40);
  }
  EXPECT_EQ(profiler_.feedback_prompts(), ProfilerParams::kMaxFeedbackPrompts);
}

TEST_F(ProfilerTest, FeedbackTeachesPieceCounts) {
  for (int i = 0; i < 4; ++i) {
    profiler_.AddGoldenFeedback(dataset_->queries()[0], 6, 80);
  }
  // Underspecified queries should now guess around the learned value.
  double sum = 0;
  int n = 0;
  for (int round = 0; round < 10; ++round) {
    for (const RagQuery& q : dataset_->queries()) {
      if (!q.underspecified) {
        continue;
      }
      sum += profiler_.Estimate(q).profile.num_info_pieces;
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, 6.0, 1.5);
}

// Every QueryProfile field and the bad-profile label of Estimate over a fixed
// list of cue queries (cues in both cases and behind punctuation, number
// words, enumerations, temporal buckets, underspecified phrasing), twice:
// before and after golden feedback. Folded into one FNV-1a digest, pinned.
TEST_F(ProfilerTest, PinnedEstimatesOverCueQueries) {
  const char* texts[] = {
      "Why did Alder Corp lose the Brenna contract?",
      "EXPLAIN the reasons behind the merger.",
      "Compare the three quarters of Alder, Brenna and Corvin.",
      "Summarize the meeting, the budget, and the plan.",
      "Identify jointly the owners of the two mills.",
      "What are the recent records of Dorran?",
      "When did the vote happen in period3?",
      "What changed in Period12 for the fund?",
      "periodx was the label; what is the reason?",
      "Which one of the five sites opened first?",
      "What is the capital of Esteria?",
      "why, compare, summarize: recent; seven reasons (ten)",
      "",
  };
  uint64_t h = 0xCBF29CE484222325ull;
  auto add = [&h](int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ static_cast<uint8_t>(v >> (8 * b))) * 0x100000001B3ull;
    }
  };
  for (int round = 0; round < 2; ++round) {
    for (const char* text : texts) {
      RagQuery q;
      q.text = text;
      QueryProfiler::Outcome out = profiler_.Estimate(q);
      const QueryProfile& p = out.profile;
      int64_t confidence_bits = 0;
      std::memcpy(&confidence_bits, &p.confidence, sizeof(confidence_bits));
      for (int64_t v : {int64_t{p.high_complexity}, int64_t{p.requires_joint},
                        int64_t{p.num_info_pieces}, int64_t{p.summary_min_tokens},
                        int64_t{p.summary_max_tokens}, confidence_bits,
                        static_cast<int64_t>(p.task_type), int64_t{p.time_bucket},
                        int64_t{out.was_bad}}) {
        add(v);
      }
    }
    profiler_.AddGoldenFeedback(dataset_->queries()[0], 4, 70);
    profiler_.AddGoldenFeedback(dataset_->queries()[1], 2, 50);
  }
  EXPECT_EQ(h, 0xf792063b0e67b3e7ull) << std::hex << "0x" << h;
}

TEST_F(ProfilerTest, OpenSourceProfilerErrsMore) {
  Simulator sim;
  ApiLlmClient api(&sim, Llama70BApi(), 7);
  QueryProfiler open(&sim, &api, &dataset_->db().metadata(), Llama70BProfilerParams(), 7);
  int open_bad = 0, gpt_bad = 0;
  for (int round = 0; round < 10; ++round) {
    for (const RagQuery& q : dataset_->queries()) {
      open_bad += open.Estimate(q).was_bad;
      gpt_bad += profiler_.Estimate(q).was_bad;
    }
  }
  EXPECT_GT(open_bad, gpt_bad);
}

}  // namespace
}  // namespace metis
