// hsrmanifest-v1: the manifest must round-trip losslessly, reject every
// malformed shape with a diagnostic instead of silently resuming from a
// wrong premise, and pin the spec via a stable digest.
#include "workload/manifest.h"

#include <gtest/gtest.h>

#include <string>

#include "util/fs.h"

namespace hsr::workload {
namespace {

CampaignManifest sample_manifest() {
  CampaignManifest m;
  m.spec_digest = 0x0123456789abcdefull;
  m.total_flows = 1000;
  m.chunk_flows = 256;
  // Pushed out of order on purpose: to_text() must sort by index.
  m.chunks.push_back({/*index=*/3, /*first_flow=*/768, /*flow_count=*/232,
                      /*flows=*/230, /*quarantines=*/2, /*bytes=*/4096,
                      /*crc32c=*/0xdeadbeef});
  m.chunks.push_back({0, 0, 256, 256, 0, 91234, 0x00000001});
  return m;
}

TEST(ManifestTest, TextRoundTripIsLossless) {
  const CampaignManifest m = sample_manifest();
  const std::string text = m.to_text();
  const auto parsed = CampaignManifest::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  CampaignManifest want = m;
  std::swap(want.chunks[0], want.chunks[1]);  // parse returns sorted order
  EXPECT_EQ(parsed.value(), want);
  // Deterministic text: re-serializing the parse reproduces the bytes.
  EXPECT_EQ(parsed.value().to_text(), text);
}

TEST(ManifestTest, ParseRejectsEveryMalformedShape) {
  const std::string good = sample_manifest().to_text();

  // Wrong magic.
  EXPECT_FALSE(CampaignManifest::parse("hsrmanifest-v2 spec=00 flows=1 "
                                       "chunk_flows=1 chunks=0\n")
                   .is_ok());
  // Declared chunk count disagrees with the entry lines present.
  {
    std::string text = good;
    text.replace(text.find("chunks=2"), 8, "chunks=3");
    const auto r = CampaignManifest::parse(text);
    ASSERT_FALSE(r.is_ok());
  }
  // Duplicate chunk index.
  {
    CampaignManifest m = sample_manifest();
    m.chunks.push_back(m.chunks[0]);
    EXPECT_FALSE(CampaignManifest::parse(m.to_text()).is_ok());
  }
  // flows + quarantines must equal the planned flow_count.
  {
    CampaignManifest m = sample_manifest();
    m.chunks[0].quarantines = 99;
    EXPECT_FALSE(CampaignManifest::parse(m.to_text()).is_ok());
  }
  // Truncation mid-entry is never accepted.
  EXPECT_FALSE(CampaignManifest::parse(good.substr(0, good.size() / 2)).is_ok());
  // Trailing garbage on an entry line.
  {
    std::string text = good;
    text.insert(text.size() - 1, " extra");
    EXPECT_FALSE(CampaignManifest::parse(text).is_ok());
  }
  EXPECT_FALSE(CampaignManifest::parse("").is_ok());
  // Every number parses whole: no sign, and no two fields fused into one
  // token (the fused CRC would otherwise be read as bytes 20090000, CRC beef).
  for (const char* bad : {"-1", "+1", "5+0"}) {
    std::string text = good;
    text.replace(text.find("C 0 0 256"), 3, std::string("C ") + bad);
    const auto r = CampaignManifest::parse(text);
    ASSERT_FALSE(r.is_ok()) << bad;
    EXPECT_NE(r.status().message().find("manifest line 2"), std::string::npos)
        << r.status().message();
  }
  {
    std::string text = good;
    text.replace(text.find(" 91234 00000001"), 15, " 20090000beef");
    EXPECT_FALSE(CampaignManifest::parse(text).is_ok()) << text;
  }
}

// Token-less lines (blanks only, or a CRLF copy's lone '\r') are skipped
// before and after the header.
TEST(ManifestTest, TokenlessLinesAreSkipped) {
  const CampaignManifest m = sample_manifest();
  std::string text = m.to_text();
  text.insert(text.find('\n') + 1, " \n\r\n");
  const auto parsed = CampaignManifest::parse("\t\n" + text + "\f\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().to_text(), m.to_text());
}

TEST(ManifestTest, DigestIsStableAndSeparatesSpecs) {
  const std::uint64_t a1 = manifest_digest("seed=1 flows=100 chunk=256");
  const std::uint64_t a2 = manifest_digest("seed=1 flows=100 chunk=256");
  const std::uint64_t b = manifest_digest("seed=2 flows=100 chunk=256");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  // Pinned value: a silent change to the digest function would strand every
  // existing work directory, so a change here must be deliberate.
  EXPECT_EQ(manifest_digest(""), 0xcbf29ce484222325ull);
}

TEST(ManifestTest, SaveAndLoadRoundTripThroughTheSeam) {
  util::Fs& fs = util::Fs::real();
  const std::string path = "manifest_test_roundtrip.hsrman";
  const CampaignManifest m = sample_manifest();
  ASSERT_TRUE(save_campaign_manifest(fs, path, m).is_ok());
  EXPECT_FALSE(fs.exists(path + ".tmp"));

  const auto loaded = load_campaign_manifest(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().spec_digest, m.spec_digest);
  EXPECT_EQ(loaded.value().total_flows, m.total_flows);
  EXPECT_EQ(loaded.value().chunks.size(), 2u);
  ASSERT_TRUE(fs.remove_file(path).is_ok());

  EXPECT_FALSE(load_campaign_manifest("manifest_test_missing.hsrman").is_ok());
}

}  // namespace
}  // namespace hsr::workload
