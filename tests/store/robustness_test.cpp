// Hostile-input robustness: every way a .scw file can be damaged —
// truncation, bit flips in payloads or CRC trailers, a future format
// version, empty segments, out-of-range references — must surface as a
// typed ArchiveError, never a crash, hang, over-read, or huge allocation.
// This suite runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

namespace stalecert::store {
namespace {

std::string temp_path(const std::string& name) {
  return testutil::unique_temp_path(name);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One segment's location inside a serialized archive.
struct SegmentExtent {
  std::uint8_t id = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_length = 0;
  std::size_t crc_offset = 0;
};

/// Independent re-parse of the container framing (not via ArchiveReader),
/// so tests can aim corruption at a specific segment.
std::vector<SegmentExtent> scan_segments(const std::vector<std::uint8_t>& file) {
  std::vector<SegmentExtent> out;
  SpanSource source(file);
  WireReader reader(source);
  for (int i = 0; i < 12; ++i) (void)reader.u8();  // magic + version
  while (reader.remaining() > 0) {
    SegmentExtent extent;
    extent.id = reader.u8();
    extent.payload_length = static_cast<std::size_t>(reader.varint());
    extent.payload_offset = file.size() - static_cast<std::size_t>(reader.remaining());
    extent.crc_offset = extent.payload_offset + extent.payload_length;
    for (std::size_t j = 0; j < extent.payload_length + 4; ++j) (void)reader.u8();
    out.push_back(extent);
  }
  return out;
}

SegmentExtent find_segment(const std::vector<std::uint8_t>& file, SegmentId id) {
  for (const auto& extent : scan_segments(file)) {
    if (extent.id == static_cast<std::uint8_t>(id)) return extent;
  }
  ADD_FAILURE() << "segment " << to_string(id) << " not found";
  return {};
}

/// A small but fully populated archive (every segment non-trivial except
/// CT, which stays empty to keep the fixture cheap to rebuild per test).
std::vector<std::uint8_t> valid_archive() {
  static const std::vector<std::uint8_t> bytes = [] {
    const std::string path = temp_path("robust_valid.scw");
    ArchiveMeta meta;
    meta.profile = "custom";
    meta.seed = 7;
    meta.start = util::Date::from_ymd(2021, 1, 1);
    meta.end = util::Date::from_ymd(2021, 12, 31);
    meta.revocation_cutoff = util::Date::from_ymd(2021, 6, 1);
    meta.delegation_patterns = {"*.ns.managed.example"};
    meta.managed_san_pattern = "sni*.managed.example";

    revocation::RevocationStore revocations;
    crypto::Digest aki{};
    aki[0] = 0xAB;
    revocations.add(aki, {0x01, 0x02},
                    {util::Date::from_ymd(2021, 7, 1),
                     revocation::ReasonCode::kKeyCompromise});

    std::vector<whois::NewRegistration> registrations;
    registrations.push_back({"stale.example.com",
                             util::Date::from_ymd(2021, 3, 1),
                             util::Date::from_ymd(2019, 3, 1)});
    registrations.push_back(
        {"fresh.example.com", util::Date::from_ymd(2021, 4, 1), std::nullopt});

    dns::SnapshotStore adns;
    dns::DailySnapshot day1;
    day1.date = util::Date::from_ymd(2021, 8, 1);
    day1.records["stale.example.com"].ns = {"a.ns.managed.example"};
    adns.add(day1);
    dns::DailySnapshot day2;
    day2.date = util::Date::from_ymd(2021, 8, 2);
    day2.records["stale.example.com"].ns = {"ns1.selfhosted.example"};
    adns.add(day2);

    sim::World::Stats stats;
    stats.certificates_issued = 3;

    ArchiveWriter(meta)
        .revocations(revocations)
        .registrations(registrations)
        .adns(adns)
        .stats(stats)
        .write(path);
    return read_file(path);
  }();
  return bytes;
}

/// Writes `bytes` to a fresh temp file and opens it end-to-end: construct a
/// reader, materialize the world, and read stats. Any corruption must
/// surface as a typed error from one of these.
void open_fully(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  const std::string path = temp_path(name);
  write_file(path, bytes);
  const ArchiveReader reader(path);
  (void)reader.load_world();
  (void)reader.stats();
}

TEST(RobustnessTest, ValidArchiveOpensFully) {
  EXPECT_NO_THROW(open_fully("robust_ok.scw", valid_archive()));
}

TEST(RobustnessTest, TruncationAnywhereIsATypedError) {
  const auto full = valid_archive();
  // Every prefix is either readable (never reaching the cut) or a typed
  // error — exhaustively for the header, sampled beyond it.
  for (std::size_t cut = 0; cut < full.size();
       cut += (cut < 16 ? 1 : full.size() / 37 + 1)) {
    std::vector<std::uint8_t> truncated(full.begin(), full.begin() + cut);
    try {
      open_fully("robust_trunc.scw", truncated);
      ADD_FAILURE() << "truncation at " << cut << " went unnoticed";
    } catch (const ArchiveError&) {
      // expected: truncated or (when the cut lands on a frame boundary
      // mid-file) a missing-segment corruption error
    }
  }
}

TEST(RobustnessTest, PayloadBitFlipFailsTheCrc) {
  auto bytes = valid_archive();
  const auto whois = find_segment(bytes, SegmentId::kWhois);
  ASSERT_GT(whois.payload_length, 0u);
  bytes[whois.payload_offset + whois.payload_length / 2] ^= 0x40;
  const std::string path = temp_path("robust_flip.scw");
  write_file(path, bytes);
  const ArchiveReader reader(path);  // header + strings are intact
  EXPECT_THROW((void)reader.load_world(), ArchiveError);
}

TEST(RobustnessTest, CrcTrailerBitFlipIsCorrupt) {
  auto bytes = valid_archive();
  const auto dns = find_segment(bytes, SegmentId::kDns);
  bytes[dns.crc_offset] ^= 0x01;
  const std::string path = temp_path("robust_crcflip.scw");
  write_file(path, bytes);
  const ArchiveReader reader(path);
  auto stream = reader.snapshots();
  EXPECT_THROW(
      while (stream.next()) {
      },
      ArchiveCorruptError);
}

TEST(RobustnessTest, FutureFormatVersionIsRejectedUpFront) {
  auto bytes = valid_archive();
  bytes[8] = kFormatVersion + 1;  // u32le version field follows the magic
  const std::string path = temp_path("robust_version.scw");
  write_file(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, ArchiveVersionError);
}

TEST(RobustnessTest, BadMagicIsCorruptNotMisparsed) {
  auto bytes = valid_archive();
  bytes[0] ^= 0xFF;
  const std::string path = temp_path("robust_magic.scw");
  write_file(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, ArchiveCorruptError);
}

TEST(RobustnessTest, EmptySegmentPayloadIsCorrupt) {
  // Even an absent dataset carries its zero record count; a 0-byte payload
  // can only come from damage.
  auto bytes = valid_archive();
  ByteSink empty_whois;
  bytes.push_back(static_cast<std::uint8_t>(SegmentId::kWhois));
  bytes.push_back(0);  // varint payload length 0
  const std::uint32_t crc = crc32(empty_whois.data());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  // Drop the original whois segment so the empty one is not a duplicate.
  const auto whois = find_segment(bytes, SegmentId::kWhois);
  const auto begin = static_cast<std::ptrdiff_t>(whois.payload_offset) - 2;
  bytes.erase(bytes.begin() + begin,
              bytes.begin() + static_cast<std::ptrdiff_t>(whois.crc_offset) + 4);
  const std::string path = temp_path("robust_empty.scw");
  write_file(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, ArchiveCorruptError);
}

TEST(RobustnessTest, UnknownSegmentIdsAreSkipped) {
  // Additive format evolution: a reader must ignore segments it does not
  // know, so old binaries can read new archives of the same version.
  auto bytes = valid_archive();
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  bytes.push_back(200);  // unassigned segment id
  bytes.push_back(3);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  EXPECT_NO_THROW(open_fully("robust_unknown.scw", bytes));
}

TEST(RobustnessTest, DuplicateSegmentIsCorrupt) {
  auto bytes = valid_archive();
  const auto stats = find_segment(bytes, SegmentId::kStats);
  // Re-append the stats segment verbatim (1-byte id + 1-byte length since
  // the payload is tiny).
  ASSERT_LT(stats.payload_length, 128u);
  std::vector<std::uint8_t> copy(
      bytes.begin() + static_cast<std::ptrdiff_t>(stats.payload_offset) - 2,
      bytes.begin() + static_cast<std::ptrdiff_t>(stats.crc_offset) + 4);
  bytes.insert(bytes.end(), copy.begin(), copy.end());
  const std::string path = temp_path("robust_dup.scw");
  write_file(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, ArchiveCorruptError);
}

TEST(RobustnessTest, OutOfRangeStringReferenceIsCorrupt) {
  // Hand-craft a whois segment whose domain index points past the table.
  auto bytes = valid_archive();
  const auto whois = find_segment(bytes, SegmentId::kWhois);
  ByteSink payload;
  payload.varint(1);        // one registration
  payload.varint(1 << 20);  // domain string index far out of range
  payload.date(util::Date::from_ymd(2021, 1, 1));
  payload.u8(0);
  ByteSink framed;
  framed.u8(static_cast<std::uint8_t>(SegmentId::kWhois));
  framed.varint(payload.size());
  framed.bytes(payload.data());
  framed.u32le(crc32(payload.data()));
  // Replace the original whois segment (id byte back through CRC) with the
  // crafted one.
  const auto begin = static_cast<std::ptrdiff_t>(whois.payload_offset) - 2;
  bytes.erase(bytes.begin() + begin,
              bytes.begin() + static_cast<std::ptrdiff_t>(whois.crc_offset) + 4);
  bytes.insert(bytes.begin() + begin, framed.data().begin(), framed.data().end());
  const std::string path = temp_path("robust_strref.scw");
  write_file(path, bytes);
  const ArchiveReader reader(path);
  auto stream = reader.registrations();
  EXPECT_THROW((void)stream.next(), ArchiveCorruptError);
}

TEST(RobustnessTest, InvalidReasonCodeIsCorrupt) {
  auto bytes = valid_archive();
  const auto seg = find_segment(bytes, SegmentId::kRevocations);
  // Build an entry with reason 7 — unused in RFC 5280, never valid.
  ByteSink framed;
  ByteSink entry;
  entry.varint(1);  // aki table: one id
  for (int i = 0; i < 32; ++i) entry.u8(0);
  entry.varint(1);  // one entry
  entry.varint(0);  // aki index 0
  entry.blob(std::vector<std::uint8_t>{0x01});
  entry.date(util::Date::from_ymd(2021, 7, 1));
  entry.varint(7);  // invalid reason
  framed.u8(static_cast<std::uint8_t>(SegmentId::kRevocations));
  framed.varint(entry.size());
  framed.bytes(entry.data());
  framed.u32le(crc32(entry.data()));
  const auto begin = static_cast<std::ptrdiff_t>(seg.payload_offset) - 2;
  bytes.erase(bytes.begin() + begin,
              bytes.begin() + static_cast<std::ptrdiff_t>(seg.crc_offset) + 4);
  bytes.insert(bytes.begin() + begin, framed.data().begin(), framed.data().end());
  const std::string path = temp_path("robust_reason.scw");
  write_file(path, bytes);
  const ArchiveReader reader(path);
  auto stream = reader.revocations();
  EXPECT_THROW((void)stream.next(), ArchiveCorruptError);
}

TEST(RobustnessTest, MissingSegmentIsCorrupt) {
  auto bytes = valid_archive();
  const auto stats = find_segment(bytes, SegmentId::kStats);
  const auto begin = static_cast<std::ptrdiff_t>(stats.payload_offset) - 2;
  bytes.erase(bytes.begin() + begin,
              bytes.begin() + static_cast<std::ptrdiff_t>(stats.crc_offset) + 4);
  const std::string path = temp_path("robust_missing.scw");
  write_file(path, bytes);
  const ArchiveReader reader(path);  // opens fine: meta + strings intact
  EXPECT_FALSE(reader.has_segment(SegmentId::kStats));
  EXPECT_THROW((void)reader.stats(), ArchiveCorruptError);
}

TEST(RobustnessTest, NonexistentFileIsAnArchiveError) {
  EXPECT_THROW(ArchiveReader{temp_path("does_not_exist.scw")}, ArchiveError);
}

}  // namespace
}  // namespace stalecert::store
