/**
 * @file
 * Deterministic bounded-memory time series for fleet-scale telemetry.
 *
 * Full JSONL tracing is unaffordable at datacenter scale and scalar
 * aggregates lose the shape of the signal; this layer is the middle
 * ground the paper's headline artifacts (Fig. 13's entropy timeline)
 * actually need. Each series is a fixed-capacity array of buckets,
 * each bucket covering `stride` consecutive epochs and keeping
 * min/max/sum/count — so tails and spikes survive compaction. When
 * an epoch lands past the last bucket the series folds: adjacent
 * bucket pairs merge and the stride doubles (power-of-two
 * downsample), keeping memory constant for any run length.
 *
 * Determinism contract: the registry is shared, with one key per
 * node (its scenario tag), so each series has one writer whatever
 * `--jobs` is; and a folded bucket is a pure function of the
 * multiset of recorded (epoch, value) points — min/max/sum/count
 * all commute — so when the fold cascade runs never changes the
 * final state. Together they keep `series` events byte-identical
 * at any `--jobs`.
 */

#ifndef AHQ_OBS_TIMESERIES_HH
#define AHQ_OBS_TIMESERIES_HH

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ahq::obs
{

struct Scope;

/**
 * One bounded ring of downsampling buckets. Not thread-safe; the
 * registry hands out one instance per (scenario, series) key and
 * concurrent writers use distinct keys (per-job / per-node tags),
 * the same ownership rule as per-job trace buffers.
 */
class TimeSeries
{
  public:
    /** Buckets per series; folding keeps memory at this bound. */
    static constexpr int kCapacity = 128;

    struct Bucket
    {
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        std::uint64_t count = 0;

        void add(double v)
        {
            // Ternaries compile to branchless min/max — the hot
            // record() path must not gamble on the value stream
            // being predictable.
            min = v < min ? v : min;
            max = v > max ? v : max;
            sum += v;
            ++count;
        }

        void combine(const Bucket &o)
        {
            if (o.count == 0)
                return;
            if (o.min < min)
                min = o.min;
            if (o.max > max)
                max = o.max;
            sum += o.sum;
            count += o.count;
        }

        double mean() const
        {
            return count > 0 ? sum / static_cast<double>(count)
                             : 0.0;
        }
    };

    TimeSeries();

    /** Record a value at an epoch (negative epochs are ignored).
        Zero-alloc: folding reuses the bucket array in place. The
        hot path is inline and division-free (stride is a power of
        two) — the simulator calls this ~20x per epoch. */
    void record(int epoch, double value)
    {
        if (epoch < 0)
            return;
        if (epoch >= foldLimit_)
            foldTo(epoch);
        buckets_[static_cast<std::size_t>(epoch) >> shift_].add(
            value);
        if (epoch > maxEpoch_)
            maxEpoch_ = epoch;
        ++points_;
    }

    /** Epochs per bucket (power of two, grows on fold). */
    int stride() const { return stride_; }

    /** Highest epoch recorded; -1 when empty. */
    int maxEpoch() const { return maxEpoch_; }

    /** Buckets in use: ceil((maxEpoch+1) / stride). */
    int bucketsInUse() const
    {
        return maxEpoch_ < 0 ? 0 : maxEpoch_ / stride_ + 1;
    }

    /** Total points recorded. */
    std::uint64_t points() const { return points_; }

    const Bucket &bucket(int i) const { return buckets_[i]; }

  private:
    void foldOnce();
    /** Cold path of record(): fold until `epoch` fits. */
    void foldTo(int epoch);

    std::vector<Bucket> buckets_;
    int stride_ = 1;
    int shift_ = 0; ///< log2(stride_), for the record() fast path
    long long foldLimit_ = kCapacity; ///< stride_ * kCapacity, cached
    int maxEpoch_ = -1;
    std::uint64_t points_ = 0;
};

/**
 * Keyed collection of series, (scenario, name) -> TimeSeries.
 * `handle()` returns a stable reference (std::map nodes do not
 * move), so hot loops resolve their series once per run and then
 * record lock-free and alloc-free; the registry mutex only guards
 * key creation and flush.
 */
class TimeSeriesRegistry
{
  public:
    /** Find-or-create; the reference stays valid for the registry's
        lifetime. Concurrent callers must use distinct keys. */
    TimeSeries &handle(std::string_view scenario,
                       std::string_view name);

    /** One-shot record for cold paths. */
    void record(std::string_view scenario, std::string_view name,
                int epoch, double value)
    {
        handle(scenario, name).record(epoch, value);
    }

    /** Drop every series. */
    void clear();

    /**
     * Emit one schema-v1 `series` JSONL event per series, in
     * sorted (scenario, name) order, through `scope`'s sink; the
     * event's scenario header comes from the series key, not the
     * scope. Also bumps `ts.series` / `ts.points` counters on the
     * scope's metrics registry.
     */
    void flush(const Scope &scope) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::pair<std::string, std::string>, TimeSeries>
        series_;
};

} // namespace ahq::obs

#endif // AHQ_OBS_TIMESERIES_HH
