/**
 * @file
 * Fluent builder for custom latency-critical application profiles,
 * so downstream users can model their own services without touching
 * the raw AppProfile fields or the calibration solver directly.
 * Everything comes from published-style numbers:
 *
 *   auto app = apps::AppBuilder("my-api")
 *                  .maxLoadQps(2500)
 *                  .tailThresholdMs(8.0)
 *                  .idealTailAt20Ms(3.0)
 *                  .cache(18.0, 3.0, 5.0)   // mpki max/min, half ways
 *                  .build();
 *
 * The profile runs 4 threads with the default CPI traits.
 */

#ifndef AHQ_APPS_BUILDER_HH
#define AHQ_APPS_BUILDER_HH

#include <optional>
#include <string>

#include "apps/profile.hh"

namespace ahq::apps
{

/**
 * Step-by-step construction of an LC AppProfile with validation at
 * build() time.
 */
class AppBuilder
{
  public:
    /** @param name Catalogue-style name for reports. */
    explicit AppBuilder(std::string name);

    /** LC anchor: maximum sustainable load (knee), requests/s. */
    AppBuilder &maxLoadQps(double qps);

    /** LC anchor: QoS threshold M_i, ms. */
    AppBuilder &tailThresholdMs(double ms);

    /** LC anchor: ideal p95 at 20% load, ms. */
    AppBuilder &idealTailAt20Ms(double ms);

    /** Cache behaviour: MPKI at 0/unbounded ways, half-sat ways. */
    AppBuilder &cache(double mpki_max, double mpki_min,
                      double ways_half);

    /**
     * Finalise: run the calibration solver against the three
     * anchors.
     *
     * @throws std::invalid_argument when required anchors are
     *         missing or inconsistent (e.g. ideal tail >= threshold),
     *         or the cache traits are.
     */
    AppProfile build() const;

  private:
    std::string name_;
    std::optional<double> maxLoad_;
    std::optional<double> threshold_;
    std::optional<double> idealTail_;
    double mpkiMax_ = 10.0, mpkiMin_ = 2.0, waysHalf_ = 4.0;
};

} // namespace ahq::apps

#endif // AHQ_APPS_BUILDER_HH
