// Report emission for histograms and miss-ratio curves.
//
// JSON ("parda.histogram.v1", via Histogram::to_json) is the interchange
// format — it round-trips and is what the metrics snapshot embeds. The CSV
// emitters are plotting-only (gnuplot/python) and deprecated for anything
// that needs to be read back.
#pragma once

#include <string>
#include <vector>

#include "hist/histogram.hpp"
#include "hist/mrc.hpp"

namespace parda {

/// CSV with header "distance,count" (finite rows ascending) and a final
/// "inf,<count>" row. Plotting-only: does not round-trip (use
/// Histogram::to_json for interchange).
std::string histogram_to_csv(const Histogram& hist);

/// CSV with header "bucket_low,bucket_high,count" over log2 buckets.
/// Plotting-only; lossy (use Histogram::to_json for interchange).
std::string histogram_to_csv_log2(const Histogram& hist);

/// CSV with header "cache_size,miss_ratio".
std::string mrc_to_csv(const std::vector<MrcPoint>& curve);

/// Writes content to path, throwing std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& content);

/// Reads the whole file as text, throwing std::runtime_error on failure.
std::string read_text_file(const std::string& path);

}  // namespace parda
