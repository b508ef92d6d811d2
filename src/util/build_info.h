// Build identity baked in at compile time: semantic version, git commit,
// and CMake build type. The values come from compile definitions set on
// build_info.cc alone (see src/CMakeLists.txt), so touching a flag or the
// git HEAD recompiles one translation unit, not the library.
//
// The canonical consumer is the `karl_build_info` gauge (value 1, labels
// carrying the identity — the standard Prometheus idiom for exposing
// build metadata through a numeric metric), registered by every
// long-running binary at startup and therefore visible in /metrics.

#ifndef KARL_UTIL_BUILD_INFO_H_
#define KARL_UTIL_BUILD_INFO_H_

#include <string>

namespace karl::util {

/// Semantic version of the build ("1.0.0"); never empty.
const char* BuildVersion();

/// Short git commit hash at configure time, or "unknown" outside a git
/// checkout.
const char* BuildGitSha();

/// CMake build type ("Release", "Debug", ...), or "unknown".
const char* BuildType();

/// The labeled Prometheus series name for the build-info gauge:
///   karl_build_info{version="...",git_sha="...",build_type="..."}
/// Callers register it with value 1:
///   registry->GetGauge(util::BuildInfoMetricName())->Set(1.0);
std::string BuildInfoMetricName();

}  // namespace karl::util

#endif  // KARL_UTIL_BUILD_INFO_H_
