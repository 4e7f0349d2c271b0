/**
 * @file
 * Load traces: time-varying load fractions driving the LC request
 * generators. Covers the paper's constant-load sweeps (§VI-A), the
 * fluctuating-load experiment (§VI-B, Fig. 13) and a diurnal pattern
 * for the "high load in the daytime, low at night" motivation.
 */

#ifndef AHQ_TRACE_LOAD_TRACE_HH
#define AHQ_TRACE_LOAD_TRACE_HH

#include <memory>
#include <utility>
#include <vector>

namespace ahq::trace
{

/**
 * A load trace maps simulated time to a load fraction of the
 * application's max load.
 */
class LoadTrace
{
  public:
    virtual ~LoadTrace() = default;

    /** Load fraction (>= 0) at the given time in seconds. */
    virtual double at(double time_s) const = 0;
};

/** Constant load. */
class ConstantTrace : public LoadTrace
{
  public:
    explicit ConstantTrace(double load_fraction);

    double at(double time_s) const override;

  private:
    double load;
};

/**
 * Piecewise-constant steps: (start_time_s, load_fraction) pairs in
 * ascending time order; the first step's load also applies before
 * its start time.
 */
class StepTrace : public LoadTrace
{
  public:
    explicit StepTrace(std::vector<std::pair<double, double>> steps);

    double at(double time_s) const override;

  private:
    std::vector<std::pair<double, double>> steps_;
};

/** Sinusoidal diurnal pattern between a low and a high load. */
class DiurnalTrace : public LoadTrace
{
  public:
    /**
     * @param low Minimum load fraction.
     * @param high Maximum load fraction.
     * @param period_s Period of one "day".
     */
    DiurnalTrace(double low, double high, double period_s);

    double at(double time_s) const override;

  private:
    double low_, high_, period;
};

/**
 * The Fig. 13 fluctuation: Xapian's load over a 250 s run, stepping
 * 10% -> 30% -> 50% -> 70% -> 90% -> back down, 20 s per level plus
 * a low-load head and tail.
 */
std::unique_ptr<LoadTrace> fig13XapianTrace();

} // namespace ahq::trace

#endif // AHQ_TRACE_LOAD_TRACE_HH
