// Zero-allocation assertions for the simulation hot path. This TU installs
// the counting global operator new/delete (alloc_probe), so it lives in its
// own test binary: the replacement is binary-wide and must not leak into
// the other suites.
#define HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS
#include "util/alloc_probe.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/flow_analysis.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "trace/trace_binary.h"
#include "util/inline_function.h"
#include "workload/multi_flow.h"
#include "workload/scenario.h"

namespace hsr {
namespace {

using sim::EventAction;
using sim::EventQueue;
using util::AllocProbe;

TEST(AllocProbeTest, CountsNewAndDelete) {
  AllocProbe::Scope scope;
  auto* p = new int(1);
  EXPECT_EQ(scope.news_delta(), 1u);
  delete p;
  EXPECT_EQ(scope.deletes_delta(), 1u);
}

TEST(InlineFunctionAllocTest, InlineCaptureNeverAllocates) {
  int sink = 0;
  AllocProbe::Scope scope;
  {
    EventAction f = [&sink] { ++sink; };
    f();
    EventAction g = std::move(f);
    g();
  }
  EXPECT_EQ(scope.news_delta(), 0u);
  EXPECT_EQ(sink, 2);
}

TEST(InlineFunctionAllocTest, OversizedCaptureAllocatesExactlyOnce) {
  struct Big {
    std::byte blob[sim::kEventActionInlineBytes + 1] = {};
    void operator()() const {}
  };
  static_assert(!EventAction::holds_inline<Big>());
  AllocProbe::Scope scope;
  {
    EventAction f = Big{};
    f();
    EventAction g = std::move(f);  // heap target: pointer move, no allocation
    g();
  }
  EXPECT_EQ(scope.news_delta(), 1u);
  EXPECT_EQ(scope.deletes_delta(), 1u);
}

// The acceptance gate: once the queue's slab and heap have reached their
// high-water mark, a schedule→fire cycle with an inline-sized capture costs
// ZERO heap allocations.
TEST(EventQueueAllocTest, SteadyStateScheduleFireIsAllocationFree) {
  EventQueue q;
  std::uint64_t fired = 0;
  auto cycle = [&](int i) {
    q.schedule(util::TimePoint::from_ns(i), [&fired] { ++fired; });
    q.pop_and_run();
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm-up: slab + heap growth
  AllocProbe::Scope scope;
  for (int i = 64; i < 4096; ++i) cycle(i);
  EXPECT_EQ(scope.news_delta(), 0u);
  EXPECT_EQ(fired, 4096u);
}

// Timer::arm records a deadline and reuses the timer's one wake-up event,
// so the ACK-clocked RTO re-arm is allocation-free.
TEST(TimerAllocTest, SteadyStateReArmIsAllocationFree) {
  sim::Simulator sim;
  int fired = 0;
  sim::Timer t(sim, [&fired] { ++fired; });
  t.arm(util::Duration::millis(10));
  for (int i = 0; i < 256; ++i) t.arm(util::Duration::millis(10));
  AllocProbe::Scope scope;
  for (int i = 0; i < 4096; ++i) t.arm(util::Duration::millis(10));
  EXPECT_EQ(scope.news_delta(), 0u);
  t.cancel();
}

// The delayed-ACK pattern under a running clock: an event every millisecond
// arms a timer and cancels it again, so idle wake-ups surface, re-post
// themselves or retire inside the probe window. None of it allocates.
TEST(TimerAllocTest, SteadyStateArmCancelChurnIsAllocationFree) {
  sim::Simulator sim;
  int fired = 0;
  sim::Timer delack(sim, [&fired] { ++fired; });
  sim::Timer rto(sim, [&fired] { ++fired; });
  int ticks = 0;
  auto tick = [&](auto& self) -> void {
    delack.arm(util::Duration::millis(40));
    rto.arm(util::Duration::millis(200));
    if (++ticks % 3 != 0) delack.cancel();
    if (ticks < 4096) sim.after(util::Duration::millis(1), [&self] { self(self); });
  };
  sim.at(util::TimePoint::zero(), [&tick] { tick(tick); });
  sim.run_until(util::TimePoint::zero() + util::Duration::millis(512));  // warm-up
  AllocProbe::Scope scope;
  sim.run();
  EXPECT_EQ(scope.news_delta(), 0u);
  EXPECT_EQ(ticks, 4096);
  EXPECT_GT(sim.idle_events(), 0u);
  EXPECT_EQ(fired, 1);  // only the final RTO arm runs out
}

// End-to-end guard: a full TCP flow (links, channels, capture taps, RTO
// timers, segment ring, flat scoreboards) costs EXACTLY ZERO heap
// allocations per steady-state event. Setup (pre-sizing reserves, endpoint
// construction) allocates freely before t=0; the probe window starts after
// a warm-up tranche so one-time high-water growth (queue slab and heap)
// has settled, and then every event — ACK clocking, SACK scoreboard
// updates, retransmissions, RTO re-arms, capture records — must run out of
// pre-sized storage. A single node-based container or std::function on any
// endpoint path trips this at the first event that touches it.
TEST(FlowAllocTest, SteadyStateIsAllocationFree) {
  workload::FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.duration = util::Duration::seconds(120);
  cfg.seed = 2015;
  cfg.probe_begin = util::TimePoint::zero() + util::Duration::seconds(10);
  cfg.probe_end = util::TimePoint::zero() + cfg.duration;
  const workload::FlowRunResult run = workload::run_flow(cfg);
  ASSERT_TRUE(run.status.is_ok());
  ASSERT_GT(run.steady_events, 10'000u);
  EXPECT_EQ(run.steady_allocs, 0u)
      << "allocs=" << run.steady_allocs << " events=" << run.steady_events;
}

// The shared-bottleneck delivery path: one Link, four registered endpoints
// with their own channels and Receivers. Once the queue and event slab reach
// their high-water mark, pushing packets of every flow through endpoint
// lookup, the flow's channel decide(), and endpoint delivery costs ZERO heap
// allocations — the per-flow registry is indexed by flow, not hashed, and
// the endpoint closures fit the Receiver SBO.
TEST(MultiFlowAllocTest, FourFlowSteadyStateDeliveryIsAllocationFree) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.rate_bps = 8e9;  // fast: no overflow, pure delivery churn
  cfg.queue_capacity = 64;
  net::Link link(sim, cfg);

  std::uint64_t delivered[4] = {};
  for (net::FlowId flow = 1; flow <= 4; ++flow) {
    auto endpoint = [count = &delivered[flow - 1]](const net::Packet&) {
      ++*count;
    };
    static_assert(net::Link::Receiver::holds_inline<decltype(endpoint)>(),
                  "endpoint closure outgrew the Receiver SBO");
    link.register_endpoint(flow, std::make_unique<net::PerfectChannel>(),
                           std::move(endpoint));
  }

  auto burst = [&] {
    for (net::FlowId flow = 1; flow <= 4; ++flow) {
      net::Packet p;
      p.id = net::allocate_packet_id();
      p.flow = flow;
      p.kind = net::PacketKind::kData;
      p.size_bytes = 1400;
      link.send(p);
    }
    sim.run();
  };
  for (int i = 0; i < 64; ++i) burst();  // warm-up: slab + queue growth
  AllocProbe::Scope scope;
  for (int i = 0; i < 1024; ++i) burst();
  EXPECT_EQ(scope.news_delta(), 0u);
  for (std::uint64_t count : delivered) EXPECT_EQ(count, 64u + 1024u);
}

// The full shared-bottleneck scenario at scale: 64 concurrent TCP senders
// through ONE bottleneck queue, each with its own capture, scoreboards,
// segment ring, and RTO timer. After a warm-up tranche, the whole fleet —
// endpoint lookup, per-flow delivery, 64 interleaved ACK clocks, loss recovery under
// queue overflow — runs with ZERO heap allocations.
TEST(MultiFlowAllocTest, SixtyFourFlowSteadyStateIsAllocationFree) {
  workload::MultiFlowSpec spec;
  spec.profile = radio::telecom_3g_highspeed();
  spec.flows = 64;
  spec.duration = util::Duration::seconds(60);
  spec.seed = 2015;
  spec.probe_begin = util::TimePoint::zero() + util::Duration::seconds(5);
  spec.probe_end = util::TimePoint::zero() + spec.duration;
  const workload::MultiFlowResult result = workload::run_multi_flow(spec);
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(result.flows.size(), 64u);
  ASSERT_GT(result.steady_events, 10'000u);
  EXPECT_EQ(result.steady_allocs, 0u)
      << "allocs=" << result.steady_allocs
      << " events=" << result.steady_events;
}

// The flow analysis works over flat per-call arrays (ACK arrivals, per-seq
// slots, per-transmission links, the timeout-sequence table), so a call
// costs a handful of allocations however long the capture is. A node-based
// container on the per-transmission path would cost thousands.
TEST(AnalyzeFlowAllocTest, AllocationsPerCallStayConstantWithCaptureLength) {
  constexpr std::uint64_t kMaxAllocsPerCall = 32;
  std::uint64_t transmissions[2] = {};
  std::uint64_t allocs[2] = {};
  const int seconds[2] = {30, 300};
  for (int k = 0; k < 2; ++k) {
    workload::FlowRunConfig cfg;
    cfg.profile = radio::mobile_lte_highspeed();
    cfg.duration = util::Duration::seconds(seconds[k]);
    cfg.seed = 2015;
    const workload::FlowRunResult run = workload::run_flow(cfg);
    ASSERT_TRUE(run.status.is_ok());
    transmissions[k] = run.capture.data.sent_count() + run.capture.acks.sent_count();
    AllocProbe::Scope scope;
    const analysis::FlowAnalysis a = analysis::analyze_flow(run.capture);
    allocs[k] = scope.news_delta();
    EXPECT_LE(allocs[k], kMaxAllocsPerCall)
        << seconds[k] << " s flow, " << transmissions[k] << " transmissions";
    if (k == 1) {
      EXPECT_GT(a.timeout_sequences.size(), 0u);
    }
  }
  ASSERT_GT(transmissions[1], 3 * transmissions[0]);
  EXPECT_LE(allocs[1], allocs[0]) << "allocations grew with capture length: " << allocs[0]
                                   << " -> " << allocs[1];
}

// A frame header is read before its payload, so a forged payload length must
// not size the payload buffer: the reader grows it only as bytes arrive, and
// a frame longer than the stream is a torn tail.
TEST(BinaryTraceReaderAllocTest, ForgedFrameLengthCostsOnlyTheBytesPresent) {
  std::ostringstream os;
  trace::write_binary_trace_header(os, 1);
  std::string bytes = os.str();
  bytes.push_back('F');
  bytes.append(4, '\0');  // crc32c: never reached
  const auto put_u64le = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put_u64le(0);                         // seq
  put_u64le(std::uint64_t{1} << 30);   // declared payload: 1 GiB, none present
  ASSERT_EQ(bytes.size(), 41u);

  std::istringstream in(bytes);
  trace::BinaryTraceReader reader(in);
  ASSERT_TRUE(reader.open().is_ok());
  trace::FlowCapture flow;
  trace::QuarantineRecord quarantine;
  AllocProbe::Scope scope;
  const auto frame = reader.next(&flow, &quarantine);
  const std::uint64_t requested = scope.bytes_delta();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value(), trace::BinaryTraceReader::Frame::kTorn);
  EXPECT_LE(requested, std::uint64_t{2} << 20);
}

}  // namespace
}  // namespace hsr
