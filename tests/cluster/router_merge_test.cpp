// The router's pure merge helpers, pinned against hand-written shard
// bodies in the exact shapes StaledService renders (see handle_summary in
// src/query/src/service.cpp). The live-socket equivalence of merged vs.
// single-node bodies is cluster_differential_test.cpp; this file covers
// the corner cases a healthy cluster never produces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stalecert/cluster/router.hpp"

namespace stalecert::cluster {
namespace {

TEST(SplitJsonArrayTest, SplitsAtDepthZeroOnly) {
  const auto elements = split_json_array(
      R"({"a":1,"b":[1,2]},{"c":"x,y"},{"d":{"e":3,"f":4}})");
  ASSERT_EQ(elements.size(), 3u);
  EXPECT_EQ(elements[0], R"({"a":1,"b":[1,2]})");
  EXPECT_EQ(elements[1], R"({"c":"x,y"})");
  EXPECT_EQ(elements[2], R"({"d":{"e":3,"f":4}})");
}

TEST(SplitJsonArrayTest, HandlesEscapedQuotesAndEmptyInput) {
  const auto elements = split_json_array(R"({"a":"he said \"1,2\""},{"b":2})");
  ASSERT_EQ(elements.size(), 2u);
  EXPECT_EQ(elements[0], R"({"a":"he said \"1,2\""})");
  EXPECT_TRUE(split_json_array("").empty());
}

TEST(ExtractJsonUintTest, ReadsIntegerAfterKey) {
  EXPECT_EQ(extract_json_uint(R"({"generation":42,"x":7})", "generation"), 42u);
  EXPECT_EQ(extract_json_uint(R"({"x":{"generation":0}})", "generation"), 0u);
  EXPECT_FALSE(extract_json_uint(R"({"gen":42})", "generation").has_value());
  // Non-numeric value after the key is absent, not zero.
  EXPECT_FALSE(extract_json_uint(R"({"generation":"42"})", "generation")
                   .has_value());
}

// A shard /v1/summary body exactly as handle_summary renders it for a
// sharded node (owned-slice counts, shard-tagged profile).
std::string shard_summary(unsigned shard, unsigned count,
                          std::uint64_t generation, std::uint64_t certs,
                          std::uint64_t stale, std::uint64_t key_compromise,
                          std::uint64_t registrant, std::uint64_t departure,
                          std::uint64_t keys, std::uint64_t serials) {
  return "{\"profile\":\"small#shard-" + std::to_string(shard) + "/" +
         std::to_string(count) +
         "\",\"seed\":7,\"window\":{\"start\":\"2024-01-01\",\"end\":"
         "\"2024-03-01\"},\"generation\":" +
         std::to_string(generation) +
         ",\"certificates\":" + std::to_string(certs) +
         ",\"stale_records\":" + std::to_string(stale) +
         ",\"by_class\":{\"key_compromise\":" + std::to_string(key_compromise) +
         ",\"registrant_change\":" + std::to_string(registrant) +
         ",\"managed_departure\":" + std::to_string(departure) +
         "},\"distinct_keys\":" + std::to_string(keys) +
         ",\"revoked_serials\":" + std::to_string(serials) + "}\n";
}

TEST(MergeSummaryTest, SumsCountsStripsShardTagTakesMinGeneration) {
  const std::vector<std::string> bodies = {
      shard_summary(0, 2, 5, 100, 10, 4, 3, 3, 40, 7),
      shard_summary(1, 2, 3, 50, 6, 2, 2, 2, 21, 5),
  };
  const std::string merged = merge_summary_bodies(bodies, {});
  EXPECT_EQ(merged,
            "{\"profile\":\"small\",\"seed\":7,\"window\":{\"start\":"
            "\"2024-01-01\",\"end\":\"2024-03-01\"},\"generation\":3,"
            "\"certificates\":150,\"stale_records\":16,\"by_class\":{"
            "\"key_compromise\":6,\"registrant_change\":5,"
            "\"managed_departure\":5},\"distinct_keys\":61,"
            "\"revoked_serials\":12}\n");
}

TEST(MergeSummaryTest, MissingShardsAppendPartialFlag) {
  const std::vector<std::string> bodies = {
      shard_summary(0, 4, 1, 10, 1, 1, 0, 0, 5, 2),
      shard_summary(3, 4, 1, 20, 2, 0, 1, 1, 9, 4),
  };
  const std::string merged = merge_summary_bodies(bodies, {1, 2});
  EXPECT_NE(merged.find("\"certificates\":30"), std::string::npos);
  EXPECT_NE(merged.find("\"partial\":true,\"shards_missing\":[1,2]"),
            std::string::npos);
  EXPECT_EQ(merged.back(), '\n');
  // A complete gather never mentions partiality.
  EXPECT_EQ(merge_summary_bodies(bodies, {}).find("partial"),
            std::string::npos);
}

}  // namespace
}  // namespace stalecert::cluster
