// Snapshot hot-swap concurrency: readers race reloads on the SnapshotCell
// and on a live StaledService (the SIGHUP path) while queries are in
// flight. Run under ThreadSanitizer in CI (the sanitizer job builds
// test_query with -fsanitize=thread); assertions here pin the invariants a
// racing reader must observe — never a null or half-built snapshot, and a
// failed reload never replaces the serving one.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "stalecert/query/service.hpp"
#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

#ifndef STALECERT_QUERY_TEST_DATA_DIR
#error "STALECERT_QUERY_TEST_DATA_DIR must be defined by the build"
#endif

namespace stalecert::query {
namespace {

const std::string kGoldenPath =
    std::string(STALECERT_QUERY_TEST_DATA_DIR) + "/golden_small.scw";

TEST(SnapshotCellTest, GenerationCountsPublishes) {
  SnapshotCell cell;
  EXPECT_EQ(cell.get(), nullptr);
  EXPECT_EQ(cell.generation(), 0u);
  cell.set(StalenessIndex::from_archive(kGoldenPath));
  EXPECT_NE(cell.get(), nullptr);
  EXPECT_EQ(cell.generation(), 1u);
}

TEST(SnapshotCellTest, ReadersRacingSwapsAlwaysSeeACompleteSnapshot) {
  SnapshotCell cell;
  const auto initial = StalenessIndex::from_archive(kGoldenPath);
  cell.set(initial);
  const std::uint64_t expected_certs = initial->stats().certificates;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = cell.get();
        ASSERT_NE(snapshot, nullptr);
        // The snapshot must be fully built and internally consistent no
        // matter how the swap interleaves.
        ASSERT_EQ(snapshot->stats().certificates, expected_certs);
        ASSERT_EQ(snapshot->stale_records().size(),
                  snapshot->stats().stale_records);
        for (const auto& cert : snapshot->corpus().certificates()) {
          ASSERT_FALSE(
              snapshot->certs_for_key(cert.subject_key().fingerprint_hex())
                  .empty());
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread swapper([&] {
    for (int i = 0; i < 20; ++i) {
      cell.set(StalenessIndex::from_archive(kGoldenPath));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  swapper.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(cell.generation(), 21u);
  EXPECT_GT(reads.load(), 0u);
}

TEST(HotSwapTest, ServiceReloadRacesInFlightRequests) {
  StaledService service(kGoldenPath);
  service.load();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&service, &stop, t] {
      net::HttpRequest request;
      request.method = "GET";
      request.version = "HTTP/1.1";
      // Mix of endpoints so both index lookups and metrics run during the
      // swap.
      request.path = (t % 2 == 0) ? "/v1/summary" : "/healthz";
      while (!stop.load(std::memory_order_relaxed)) {
        const net::HttpResponse response = service.handle(request);
        ASSERT_EQ(response.status, 200);
      }
    });
  }

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.reload());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();

  // load() published generation 1; ten reloads follow.
  EXPECT_EQ(service.generation(), 11u);
}

TEST(HotSwapTest, FailedReloadKeepsThePreviousSnapshotServing) {
  // Copy the golden archive so we can corrupt the file after loading.
  const std::string path = testutil::unique_temp_path("hotswap_corrupt.scw");
  {
    std::ifstream in(kGoldenPath, std::ios::binary);
    std::ofstream out(path, std::ios::binary);
    out << in.rdbuf();
  }

  StaledService service(path);
  service.load();
  const auto before = service.snapshot();
  ASSERT_NE(before, nullptr);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not an archive";
  }
  EXPECT_FALSE(service.reload());
  EXPECT_EQ(service.snapshot(), before);
  EXPECT_EQ(service.generation(), 1u);

  // The old snapshot still answers.
  net::HttpRequest request;
  request.method = "GET";
  request.version = "HTTP/1.1";
  request.path = "/healthz";
  EXPECT_EQ(service.handle(request).status, 200);
}

}  // namespace
}  // namespace stalecert::query
