/**
 * @file
 * Property tests for the exact-key evaluation memo — the caching
 * layer the epoch hot path relies on being *bitwise* transparent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "perf/contention_cache.hh"

namespace
{

using ahq::perf::EvaluationMemo;

TEST(EvaluationMemo, HitReturnsStoredOutcomesExactly)
{
    EvaluationMemo<double> memo;
    const std::vector<double> key{1.0, 2.5, -0.0, 3e18};
    const std::vector<double> out{0.25, 0.75, 1.0};

    std::uint64_t h = 0;
    EXPECT_EQ(memo.find(key, h), nullptr);
    memo.store(h, key, out);
    const std::vector<double> *hit = memo.find(key, h);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, out);
    EXPECT_EQ(memo.hits(), 1u);
}

// Any single-element perturbation of the key — including ones that
// collide under a weaker hash, like swapped elements — must miss:
// the memo may only ever short-circuit exact re-evaluations.
TEST(EvaluationMemo, PerturbedKeysMiss)
{
    EvaluationMemo<double> memo;
    const std::vector<double> key{4.0, 8.0, 15.0, 16.0};
    std::uint64_t h = 0;
    ASSERT_EQ(memo.find(key, h), nullptr);
    memo.store(h, key, {1.0});
    ASSERT_NE(memo.find(key, h), nullptr);

    for (std::size_t i = 0; i < key.size(); ++i) {
        std::vector<double> tweaked = key;
        tweaked[i] += 1e-9;
        EXPECT_EQ(memo.find(tweaked, h), nullptr) << i;
    }
    std::vector<double> swapped{8.0, 4.0, 15.0, 16.0};
    EXPECT_EQ(memo.find(swapped, h), nullptr);
    std::vector<double> shorter{4.0, 8.0, 15.0};
    EXPECT_EQ(memo.find(shorter, h), nullptr);
}

// Lookups may run ahead of their stores (a batch looks up every set
// before it solves the misses): each key is filed under its own hash
// and hits again.
TEST(EvaluationMemo, StoresEachKeyUnderItsOwnHash)
{
    EvaluationMemo<int> memo;
    const std::vector<double> a{1.0}, b{2.0}, c{3.0};
    std::uint64_t ha = 0, hb = 0, hc = 0;
    ASSERT_EQ(memo.find(a, ha), nullptr);
    ASSERT_EQ(memo.find(b, hb), nullptr);
    ASSERT_EQ(memo.find(c, hc), nullptr);
    memo.store(ha, a, {1});
    memo.store(hb, b, {2});
    memo.store(hc, c, {3});
    std::uint64_t h = 0;
    for (const auto &[key, v] :
         {std::pair{a, 1}, std::pair{b, 2}, std::pair{c, 3}}) {
        const std::vector<int> *hit = memo.find(key, h);
        ASSERT_NE(hit, nullptr) << v;
        EXPECT_EQ(*hit, std::vector<int>{v});
    }
    EXPECT_EQ(memo.hits(), 3u);
}

TEST(EvaluationMemo, ClearsWhenFullInsteadOfGrowing)
{
    EvaluationMemo<int> memo;
    std::uint64_t h = 0;
    const auto full = static_cast<int>(ahq::perf::kMemoCapacity);
    for (int k = 0; k < full; ++k) {
        ASSERT_EQ(memo.find({double(k)}, h), nullptr);
        memo.store(h, {double(k)}, {k});
    }
    for (int k = 0; k < full; ++k)
        ASSERT_NE(memo.find({double(k)}, h), nullptr) << k;

    // The next store clears the full table first: the old keys are
    // gone, the new one is present.
    ASSERT_EQ(memo.find({double(full)}, h), nullptr);
    memo.store(h, {double(full)}, {full});
    EXPECT_EQ(memo.find({0.0}, h), nullptr);
    EXPECT_EQ(memo.find({double(full - 1)}, h), nullptr);
    EXPECT_NE(memo.find({double(full)}, h), nullptr);
}

// A memo built after others on its thread were destroyed takes their
// slot buffers from the thread's pool, and still starts empty: none
// of the earlier memos' keys hit, and it fills and clears like a
// fresh one.
TEST(EvaluationMemo, PooledSlotsStartEmpty)
{
    std::uint64_t h = 0;
    const auto full = static_cast<int>(ahq::perf::kMemoCapacity);
    {
        std::vector<EvaluationMemo<int>> earlier(ahq::perf::kPooledMemos + 2);
        for (EvaluationMemo<int> &memo : earlier) {
            for (int k = 0; k < full; ++k) {
                ASSERT_EQ(memo.find({double(k)}, h), nullptr);
                memo.store(h, {double(k)}, {k});
            }
        }
    }
    for (int round = 0; round < 2; ++round) {
        EvaluationMemo<int> memo;
        for (int k = 0; k < full; ++k)
            EXPECT_EQ(memo.find({double(k)}, h), nullptr) << k;
        EXPECT_EQ(memo.hits(), 0u);
        ASSERT_EQ(memo.find({1.0}, h), nullptr);
        memo.store(h, {1.0}, {-1});
        const std::vector<int> *hit = memo.find({1.0}, h);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(*hit, std::vector<int>{-1});
        EXPECT_EQ(memo.find({0.0}, h), nullptr);
        EXPECT_EQ(memo.hits(), 1u);
    }
}

} // namespace
