// RPC channel accounting tests: who pays for what on a unary call, the
// marshal flag, framing-component attribution, and the serialization model
// itself.
#include <gtest/gtest.h>

#include "rpc/channel.hpp"
#include "rpc/serialization_model.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace dcache::rpc {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest()
      : client_("client", sim::TierKind::kAppServer),
        server_("server", sim::TierKind::kKvStorage),
        channel_(network_, SerializationModel{}) {}

  sim::NetworkModel network_;
  sim::Node client_;
  sim::Node server_;
  Channel channel_;
};

TEST_F(ChannelTest, UnaryCallChargesAllFourLegs) {
  const auto result = channel_.call(client_, server_, 100, 1000);
  EXPECT_GT(result.latencyMicros, 0.0);

  const SerializationModel& s = channel_.serializer();
  // Client: serialize request + deserialize response.
  EXPECT_NEAR(client_.cpu().micros(sim::CpuComponent::kSerialization),
              s.serializeMicros(100), 1e-9);
  EXPECT_NEAR(client_.cpu().micros(sim::CpuComponent::kDeserialization),
              s.deserializeMicros(1000), 1e-9);
  // Server: the mirror image.
  EXPECT_NEAR(server_.cpu().micros(sim::CpuComponent::kDeserialization),
              s.deserializeMicros(100), 1e-9);
  EXPECT_NEAR(server_.cpu().micros(sim::CpuComponent::kSerialization),
              s.serializeMicros(1000), 1e-9);
  // Framing charged at both ends for both directions.
  EXPECT_GT(client_.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
  EXPECT_GT(server_.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
  EXPECT_EQ(channel_.callCount(), 1u);
  EXPECT_EQ(network_.messagesSent(), 2u);
}

TEST_F(ChannelTest, MarshalFalseSkipsSerializationOnly) {
  channel_.call(client_, server_, 100, 1000, /*marshal=*/false);
  EXPECT_DOUBLE_EQ(client_.cpu().micros(sim::CpuComponent::kSerialization),
                   0.0);
  EXPECT_DOUBLE_EQ(server_.cpu().micros(sim::CpuComponent::kSerialization),
                   0.0);
  // Bytes still cross the wire: framing is charged.
  EXPECT_GT(client_.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
}

TEST_F(ChannelTest, FramingComponentAttribution) {
  channel_.call(client_, server_, 64, 64, true,
                sim::CpuComponent::kClientComm);
  EXPECT_GT(client_.cpu().micros(sim::CpuComponent::kClientComm), 0.0);
  EXPECT_DOUBLE_EQ(client_.cpu().micros(sim::CpuComponent::kRpcFraming),
                   0.0);
}

TEST_F(ChannelTest, InProcessCallIsFree) {
  const auto result = channel_.call(client_, client_, 1 << 20, 1 << 20);
  EXPECT_DOUBLE_EQ(result.latencyMicros, 0.0);
  EXPECT_DOUBLE_EQ(client_.cpu().totalMicros(), 0.0);
}

TEST_F(ChannelTest, OneWayChargesSingleLeg) {
  const double latency = channel_.oneWay(client_, server_, 256);
  EXPECT_GT(latency, 0.0);
  EXPECT_GT(client_.cpu().micros(sim::CpuComponent::kSerialization), 0.0);
  EXPECT_GT(server_.cpu().micros(sim::CpuComponent::kDeserialization), 0.0);
  // No response: the server serializes nothing.
  EXPECT_DOUBLE_EQ(server_.cpu().micros(sim::CpuComponent::kSerialization),
                   0.0);
  EXPECT_EQ(network_.messagesSent(), 1u);
}

TEST_F(ChannelTest, LatencyScalesWithBytes) {
  const auto small = channel_.call(client_, server_, 64, 64);
  const auto large = channel_.call(client_, server_, 64, 1 << 20);
  EXPECT_GT(large.latencyMicros, small.latencyMicros);
}

TEST(SerializationModel, LinearInBytes) {
  const SerializationModel model;
  const double base = model.serializeMicros(0);
  const double per1k = model.serializeMicros(1000) - base;
  const double per2k = model.serializeMicros(2000) - base;
  EXPECT_NEAR(per2k, 2.0 * per1k, 1e-9);
  // Decode is configured slower than encode.
  EXPECT_GT(model.deserializeMicros(1 << 20), model.serializeMicros(1 << 20));
}

TEST(SerializationModel, ChargeHelpers) {
  const SerializationModel model;
  sim::Node node("n", sim::TierKind::kAppServer);
  model.chargeSerialize(node, 1000);
  model.chargeDeserialize(node, 1000);
  EXPECT_NEAR(node.cpu().micros(sim::CpuComponent::kSerialization),
              model.serializeMicros(1000), 1e-9);
  EXPECT_NEAR(node.cpu().micros(sim::CpuComponent::kDeserialization),
              model.deserializeMicros(1000), 1e-9);
}

}  // namespace
}  // namespace dcache::rpc
