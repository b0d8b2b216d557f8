// lint-fixture: rules=hotpath path=src/analysis/flow_fixture.cpp
// Analysis-shaped fixture for the flow-analysis hot regions: per-seq state
// in a flat array indexed by slot stays quiet, while the node-based
// bookkeeping the flat rewrite removed fires — std::map::operator[] (also
// through an alias), std::set::insert and a per-transmission push_back.
// Read-only map lookups (find) do not allocate and stay quiet.
#include <cstddef>
#include <map>
#include <set>
#include <vector>

namespace fixture {

struct Tx {
  unsigned long seq;
  bool arrived;
};

struct SlotState {
  std::size_t last;
  bool delivered;
};

using Rounds = std::map<long, unsigned>;

// HSR_HOT_PATH_BEGIN
inline unsigned long flat_pass(const std::vector<Tx>& txs, std::vector<SlotState>& state,
                               unsigned long min_seq) {
  unsigned long unique = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    SlotState& slot = state[txs[i].seq - min_seq];   // flat slot: quiet
    slot.last = i;
    if (txs[i].arrived && !slot.delivered) {
      slot.delivered = true;
      ++unique;
    }
  }
  return unique;
}

inline unsigned long map_pass(const std::vector<Tx>& txs,
                              std::map<unsigned long, std::size_t>& last_send_of,
                              const std::map<unsigned long, bool>& lookup,
                              std::set<unsigned long>& seen, Rounds& rounds,
                              std::vector<std::size_t>& sends) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    last_send_of[txs[i].seq] = i;                    // expect: hot-alloc
    if (txs[i].arrived) seen.insert(txs[i].seq);     // expect: hot-alloc
    ++rounds[static_cast<long>(i / 64)];             // expect: hot-alloc
    sends.push_back(i);                              // expect: hot-alloc
    (void)lookup.find(txs[i].seq);                   // lookup only: quiet
  }
  return seen.size();
}
// HSR_HOT_PATH_END

inline void cold_setup(std::map<unsigned long, std::size_t>& m) { m[0] = 0; }

}  // namespace fixture
