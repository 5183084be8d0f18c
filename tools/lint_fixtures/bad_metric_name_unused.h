// lint-fixture-path: src/obs/metric_names.h
// Known-bad: declares a metric constant that no other file under src/
// references, so its time series can never be written.
#ifndef EBI_OBS_METRIC_NAMES_H_
#define EBI_OBS_METRIC_NAMES_H_

namespace ebi {
namespace obs {

inline constexpr char kMetricFixtureNeverWritten[] =
    "ebi.fixture.never_written";

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_METRIC_NAMES_H_
