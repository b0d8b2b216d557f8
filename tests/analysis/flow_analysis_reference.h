// Reference implementation of the §III flow analysis, kept for tests only.
//
// This is the map-based implementation analysis::analyze_flow replaced: one
// std::map of last sends, one of first sends and one of all sends per seq,
// a std::set of delivered seqs and a std::map of RTT rounds. It is slow, but
// it is the direct transcription of the methodology, so the differential
// test (flow_analysis_differential_test.cpp) holds the flat single-pass
// implementation in src/analysis/ to it field for field, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/flow_analysis.h"
#include "trace/capture.h"

namespace hsr::analysis::reference {

FlowAnalysis analyze_flow(const trace::FlowCapture& capture, AnalysisConfig config = {});

std::vector<std::size_t> find_rto_retransmissions(const trace::FlowCapture& capture,
                                                  AnalysisConfig config = {});

unsigned count_fast_retransmissions(const trace::FlowCapture& capture,
                                    AnalysisConfig config = {});

double estimate_ack_burst_loss(const trace::FlowCapture& capture, Duration rtt);

// Distinct data segments delivered at least once, counted with a std::set
// (the former FlowCapture::unique_segments_delivered()).
std::uint64_t unique_segments_delivered(const trace::FlowCapture& capture);

}  // namespace hsr::analysis::reference
