/**
 * @file
 * Exact-key memoisation of contention-model evaluations.
 *
 * A monitoring epoch re-evaluates the same (layout, demands, policy)
 * triple whenever the scheduler holds its allocation and the offered
 * load is unchanged — the common steady state of every strategy, and
 * the dominant case of the epoch-throughput benchmarks. The memo
 * canonicalises the triple into a flat key of doubles (every field
 * the model reads: region shapes, resources and members, per-app
 * demand and curve parameters) and returns the previously computed
 * outcomes on an exact byte match, so a hit is bitwise
 * indistinguishable from recomputation. Anything that perturbs any
 * model input — a repartition, a load change, a fault-injected spike
 * — changes the key and misses.
 *
 * The store is a small bounded open array (clear-on-full): lookups
 * stay allocation-free once warm and adversarial key churn (e.g. the
 * oracle sweeping thousands of layouts) degrades to plain
 * recomputation instead of unbounded growth. Clearing keeps every
 * slot's storage, so once each slot has held a key and outcomes of
 * the current size a store allocates nothing either — the memo-miss
 * regime (time-varying load, a miss every epoch) stays
 * allocation-free.
 */

#ifndef AHQ_PERF_CONTENTION_CACHE_HH
#define AHQ_PERF_CONTENTION_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ahq::perf
{

/**
 * Entries of the exact-key evaluation memo. Hits return
 * byte-identical outcomes for byte-identical inputs, so the size
 * changes no observable result — only the cost of epochs whose
 * layout and demands repeat.
 */
constexpr std::size_t kMemoCapacity = 64;

/**
 * Emptied memos' slot storage a thread keeps for its next memos: a
 * lock-step group of four runs, each with the simulator's and the
 * attributor's model.
 */
constexpr std::size_t kPooledMemos = 8;

/**
 * Bounded exact-key memo of per-app outcome vectors. A memo takes
 * its slots from the constructing thread's pool and gives them back
 * when destroyed, so runs that follow one another on a thread reuse
 * one set of slot buffers instead of reallocating them; a memo only
 * ever reads its first size_ slots, so a pooled memo hits and misses
 * exactly like a fresh one.
 */
template <typename Outcome>
class EvaluationMemo
{
  public:
    EvaluationMemo()
    {
        std::vector<std::vector<Entry>> &pool = slotPool();
        if (!pool.empty()) {
            entries_ = std::move(pool.back());
            pool.pop_back();
        }
    }

    ~EvaluationMemo()
    {
        std::vector<std::vector<Entry>> &pool = slotPool();
        if (entries_.capacity() != 0 && pool.size() < kPooledMemos)
            pool.push_back(std::move(entries_));
    }

    EvaluationMemo(const EvaluationMemo &) = default;
    EvaluationMemo(EvaluationMemo &&) noexcept = default;
    EvaluationMemo &operator=(const EvaluationMemo &) = default;
    EvaluationMemo &operator=(EvaluationMemo &&) noexcept = default;

    /**
     * Look up the outcomes for @p key, writing its hash into @p hash
     * for a later store() of the same key. Several lookups may
     * precede their stores: the memo keeps no state between the two
     * calls. Returns nullptr on a miss; the returned pointer is
     * invalidated by store().
     */
    const std::vector<Outcome> *
    find(const std::vector<double> &key, std::uint64_t &hash)
    {
        hash = hashKey(key);
        for (std::size_t k = 0; k < size_; ++k) {
            const Entry &e = entries_[k];
            if (e.hash == hash && e.key == key) {
                ++hits_;
                return &e.outcomes;
            }
        }
        return nullptr;
    }

    /**
     * Store outcomes under @p key, whose hash find() computed. A full
     * store is cleared first, bounding memory and scan cost.
     */
    void
    store(std::uint64_t hash, const std::vector<double> &key,
          const std::vector<Outcome> &outcomes)
    {
        if (size_ >= kMemoCapacity)
            size_ = 0;
        if (size_ == entries_.size())
            entries_.emplace_back();
        Entry &e = entries_[size_++];
        e.hash = hash;
        e.key = key;
        e.outcomes = outcomes;
    }

    std::size_t hits() const { return hits_; }

  private:
    static std::uint64_t
    hashKey(const std::vector<double> &key)
    {
        // FNV-1a over the key, one 64-bit word per double, in four
        // independent lanes (word j feeds lane j % 4) folded at the
        // end: a miss hashes the whole key before it can store, and
        // one serial multiply chain would bound it by latency. The
        // compare is exact, the hash only short-circuits mismatches.
        constexpr std::uint64_t kBasis = 1469598103934665603ULL;
        constexpr std::uint64_t kPrime = 1099511628211ULL;
        std::uint64_t lane[4] = {kBasis, kBasis, kBasis, kBasis};
        for (std::size_t j = 0; j < key.size(); ++j) {
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(double));
            std::memcpy(&bits, &key[j], sizeof(bits));
            lane[j % 4] = (lane[j % 4] ^ bits) * kPrime;
        }
        std::uint64_t h = kBasis;
        for (const std::uint64_t v : lane)
            h = (h ^ v) * kPrime;
        return h;
    }

    struct Entry
    {
        std::uint64_t hash = 0;
        std::vector<double> key;
        std::vector<Outcome> outcomes;
    };

    /** The calling thread's pool of emptied slot buffers. */
    static std::vector<std::vector<Entry>> &
    slotPool()
    {
        thread_local std::vector<std::vector<Entry>> pool;
        return pool;
    }

    /** Slots; the first size_ hold live entries. */
    std::vector<Entry> entries_;
    std::size_t size_ = 0;
    std::size_t hits_ = 0;
};

} // namespace ahq::perf

#endif // AHQ_PERF_CONTENTION_CACHE_HH
