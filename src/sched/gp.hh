/**
 * @file
 * Gaussian-process regression and expected improvement — the
 * surrogate model CLITE's Bayesian optimiser uses (HPCA 2020).
 *
 * Squared-exponential kernel, Cholesky-factored exact inference.
 * The factor is maintained incrementally: appending a sample is an
 * O(n^2) row-append that produces bitwise the same factor a full
 * O(n^3) refit would, and an optional sliding window evicts the
 * oldest sample with an O(n^2) rank-1 down-date so the factor
 * never exceeds the window. predict() reuses the factor and two
 * scratch buffers, so scoring a candidate pool allocates nothing.
 */

#ifndef AHQ_SCHED_GP_HH
#define AHQ_SCHED_GP_HH

#include <cstddef>
#include <vector>

namespace ahq::sched
{

/** Standard normal probability density. */
double normalPdf(double z);

/** Standard normal cumulative distribution. */
double normalCdf(double z);

/**
 * Gaussian-process regressor with a squared-exponential kernel:
 *
 *   k(x, x') = signal_var * exp(-|x - x'|^2 / (2 * length_scale^2))
 *              (+ noise_var on the diagonal)
 */
class GaussianProcess
{
  public:
    /**
     * @param length_scale Kernel length scale (> 0).
     * @param signal_var Signal variance (> 0).
     * @param noise_var Observation noise variance (>= 0).
     */
    GaussianProcess(double length_scale, double signal_var,
                    double noise_var);

    /**
     * Fit to observations; all xs must share one dimensionality.
     * The target values are centred internally. Equivalent to
     * clear() followed by addSample() per pair (the window cap
     * applies, evicting the oldest samples of an over-long stream).
     */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    /**
     * Append one observation, extending the Cholesky factor by one
     * row in O(n^2) — bitwise identical to refitting from scratch
     * on the same window. When a window cap is set and the model is
     * full, the oldest sample is evicted first (rank-1 down-date;
     * the evicted factor matches a refit to ~1e-12 relative, not
     * bitwise).
     */
    void addSample(const std::vector<double> &x, double y);

    /** Drop every sample (hyperparameters and window kept). */
    void clear();

    /**
     * Cap the sliding sample window (0 = unbounded). Shrinking
     * below the current sample count evicts the oldest samples.
     */
    void setWindowCap(std::size_t cap);

    /** Whether at least one sample is held. */
    bool fitted() const { return n_ > 0; }

    /** Number of training samples currently in the window. */
    std::size_t numSamples() const { return n_; }

    struct Prediction
    {
        double mean;
        double variance;
    };

    /** Posterior mean/variance at a query point (allocation-free). */
    Prediction predict(const std::vector<double> &x) const;

    /**
     * Expected improvement of the query point over the incumbent for
     * a maximisation problem.
     *
     * @param x Query point.
     * @param best_y Incumbent (best observed) value.
     * @param xi Exploration bonus (>= 0).
     */
    double expectedImprovement(const std::vector<double> &x,
                               double best_y, double xi = 0.01) const;

  private:
    double lengthScale;
    double signalVar;
    double noiseVar;

    std::size_t n_ = 0;      // samples in the window
    std::size_t dim_ = 0;    // input dimensionality
    std::size_t stride_ = 0; // allocated row length of chol
    std::size_t window_ = 0; // 0 = unbounded

    std::vector<double> train; // n_ x dim_, row-major
    std::vector<double> ys_;   // raw targets, window order
    std::vector<double> chol;  // n_ x stride_ row-major lower factor
    std::vector<double> alpha; // K^-1 (y - mean)
    double ySum = 0.0;
    double yMean = 0.0;

    mutable std::vector<double> kstarBuf; // predict scratch
    mutable std::vector<double> vBuf;     // predict scratch
    std::vector<double> zBuf;             // alpha-solve scratch
    std::vector<double> downdateBuf;      // eviction scratch

    double kernelRows(const double *a, const double *b) const;

    /** Recompute alpha from chol/ys_ (O(n^2)). */
    void refreshAlpha();

    /** Evict the oldest sample via a rank-1 factor down-date. */
    void evictOldest();
};

} // namespace ahq::sched

#endif // AHQ_SCHED_GP_HH
