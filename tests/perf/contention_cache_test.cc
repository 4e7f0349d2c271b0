/**
 * @file
 * Property tests for the exact-key evaluation memo — the caching
 * layer the epoch hot path relies on being *bitwise* transparent.
 */

#include <gtest/gtest.h>

#include <vector>

#include "perf/contention_cache.hh"

namespace
{

using ahq::perf::EvaluationMemo;

TEST(EvaluationMemo, HitReturnsStoredOutcomesExactly)
{
    EvaluationMemo<double> memo(8);
    const std::vector<double> key{1.0, 2.5, -0.0, 3e18};
    const std::vector<double> out{0.25, 0.75, 1.0};

    EXPECT_EQ(memo.find(key), nullptr);
    memo.store(key, out);
    const std::vector<double> *hit = memo.find(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, out);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 1u);
}

// Any single-element perturbation of the key — including ones that
// collide under a weaker hash, like swapped elements — must miss:
// the memo may only ever short-circuit exact re-evaluations.
TEST(EvaluationMemo, PerturbedKeysMiss)
{
    EvaluationMemo<double> memo(8);
    const std::vector<double> key{4.0, 8.0, 15.0, 16.0};
    ASSERT_EQ(memo.find(key), nullptr); // stage the key's hash
    memo.store(key, {1.0});
    ASSERT_NE(memo.find(key), nullptr);

    for (std::size_t i = 0; i < key.size(); ++i) {
        std::vector<double> tweaked = key;
        tweaked[i] += 1e-9;
        EXPECT_EQ(memo.find(tweaked), nullptr) << i;
    }
    std::vector<double> swapped{8.0, 4.0, 15.0, 16.0};
    EXPECT_EQ(memo.find(swapped), nullptr);
    std::vector<double> shorter{4.0, 8.0, 15.0};
    EXPECT_EQ(memo.find(shorter), nullptr);
}

TEST(EvaluationMemo, ClearsWhenFullInsteadOfGrowing)
{
    EvaluationMemo<int> memo(2);
    ASSERT_EQ(memo.find({1.0}), nullptr);
    memo.store({1.0}, {1});
    ASSERT_EQ(memo.find({2.0}), nullptr);
    memo.store({2.0}, {2});
    ASSERT_NE(memo.find({1.0}), nullptr);
    ASSERT_NE(memo.find({2.0}), nullptr);

    // The third store clears the full table first: the old keys are
    // gone, the new one is present.
    ASSERT_EQ(memo.find({3.0}), nullptr);
    memo.store({3.0}, {3});
    EXPECT_EQ(memo.find({1.0}), nullptr);
    EXPECT_EQ(memo.find({2.0}), nullptr);
    EXPECT_NE(memo.find({3.0}), nullptr);
}

} // namespace
