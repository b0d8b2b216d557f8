// Shared pieces of the hsrbench driver: arguments, the in-memory span
// recorder, the Table I campaign spec, and the line-oriented report that
// perfbench/run.py turns into metrics.
//
// Report lines (stdout, written once when the run ends):
//   setup <seconds>                         one per set-up
//   iter <U|T> <wall_s> <flows> <bytes> <peak_rss_mb>
//                                           one per timed unit (T = traced)
//   attempt <attempted> <failed>            operation totals of the run
//   error <message>                         one per failed output check
//   info <key> <value>                      facts recorded with the result
//   count <name> <value>                    exact counters (traced runs)
//   span <iter> <name> <worker> <start_ns> <end_ns>   (traced runs)
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "workload/dataset.h"

namespace hsrbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string work;  // scratch directory for corpora
  std::uint64_t flows = 0;
  double duration_s = 60.0;
  unsigned threads = 1;
};

// Set-up repetitions in one run, at the least; setup_s is their median.
constexpr unsigned kSetups = 3;

// Nanoseconds on the monotonic clock since the first call in this process.
std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

// Peak resident memory of one unit of work. start_unit_rss() hands freed
// heap back to the kernel, so every unit starts from the same baseline, and
// resets VmHWM to the current RSS through /proc/self/clear_refs; it returns
// false where that reset is unavailable. unit_peak_rss_mb() reads VmHWM.
bool start_unit_rss();
double unit_peak_rss_mb();

struct Span {
  int iter = 0;
  const char* name = "";
  int worker = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Report {
  std::vector<double> setup_s;
  struct Iter {
    bool traced = false;
    double wall_s = 0.0;
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    double peak_rss_mb = 0.0;  // 0 = not measured
  };
  std::vector<Iter> iters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> info;
  std::map<std::string, double> counts;
  std::vector<Span> spans;

  void error(std::string message) {
    for (char& c : message) {
      if (c == '\n') c = ' ';
    }
    errors.push_back(std::move(message));
  }
  void print(std::ostream& os) const;
};

// Spans of one traced unit of work. Passing a null Trace* is the untraced
// path: no clock is read and nothing is recorded.
class Trace {
 public:
  Trace(Report& report, int iter) : report_(report), iter_(iter) {}
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, int worker = 0) {
    report_.spans.push_back(Span{iter_, name, worker, start_ns, end_ns});
  }

 private:
  Report& report_;
  int iter_;
};

// Records [construction, destruction) under `name` when `trace` is non-null.
class Scope {
 public:
  Scope(Trace* trace, const char* name)
      : trace_(trace), name_(name), start_(trace != nullptr ? now_ns() : 0) {}
  ~Scope() {
    if (trace_ != nullptr) trace_->add(name_, start_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  std::int64_t start_;
};

// Returns fn(), recorded under `name` when `trace` is non-null.
template <class F>
auto timed(Trace* trace, const char* name, F&& fn) {
  const Scope scope(trace, name);
  return fn();
}

// The campaign of `flows` planned flows that tools/corpus_campaign builds:
// Table I's 52:73:65:65 mix plus ~1/8 stationary control flows, every flow
// `duration_s` long.
hsr::workload::DatasetSpec campaign_spec(std::uint64_t flows, double duration_s,
                                         std::uint64_t seed, unsigned threads);

// Workload entry points; each fills `report`.
void run_campaign(const Args& args, Report& report);
void run_scan_setup(const Args& args, Report& report);
void run_corpus_scan(const Args& args, Report& report);
void run_shared_cell(const Args& args, Report& report);

// File names inside Args::work shared by the scan set-up and the scan.
std::string scan_corpus_path(const Args& args);
std::string scan_digest_path(const Args& args);

}  // namespace hsrbench
