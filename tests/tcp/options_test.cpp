// TcpOptions — the shared protocol-knob struct every configuration surface
// carries — and its expansion into the stack-level TcpConfig.
#include "tcp/types.h"

#include <gtest/gtest.h>

namespace hsr::tcp {
namespace {

TcpOptions sample_options() {
  TcpOptions o;
  o.congestion_control = CongestionControl::kVeno;
  o.enable_sack = true;
  o.enable_frto = true;
  o.adaptive_delack = true;
  o.delayed_ack_b = 1;
  o.min_rto = util::Duration::millis(350);
  o.mss_bytes = 1200;
  return o;
}

TEST(TcpOptionsTest, DefaultsMatchTheStackDefaults) {
  const TcpOptions o;
  const TcpConfig c;
  EXPECT_EQ(o.congestion_control, c.congestion_control);
  EXPECT_EQ(o.enable_sack, c.enable_sack);
  EXPECT_EQ(o.enable_frto, c.enable_frto);
  EXPECT_EQ(o.adaptive_delack, c.adaptive_delack);
  EXPECT_EQ(o.delayed_ack_b, c.delayed_ack_b);
  EXPECT_EQ(o.min_rto, c.rto.min_rto);
  EXPECT_EQ(o.mss_bytes, c.mss_bytes);
}

TEST(TcpOptionsTest, MakeTcpConfigSetsEveryKnobAndTheWindow) {
  const TcpOptions o = sample_options();
  const TcpConfig c = make_tcp_config(o, 96);
  EXPECT_EQ(c.congestion_control, CongestionControl::kVeno);
  EXPECT_TRUE(c.enable_sack);
  EXPECT_TRUE(c.enable_frto);
  EXPECT_TRUE(c.adaptive_delack);
  EXPECT_EQ(c.delayed_ack_b, 1u);
  EXPECT_EQ(c.rto.min_rto, util::Duration::millis(350));
  EXPECT_EQ(c.mss_bytes, 1200u);
  EXPECT_EQ(c.receiver_window, 96u);
  // Everything outside the options keeps its TcpConfig default.
  EXPECT_EQ(c.total_segments, TcpConfig{}.total_segments);
}

}  // namespace
}  // namespace hsr::tcp
