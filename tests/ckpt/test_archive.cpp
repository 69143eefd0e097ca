#include "ckpt/archive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"

namespace dike::ckpt {
namespace {

TEST(BinArchive, ScalarRoundTrip) {
  BinWriter w;
  w.u64("u", 0xFFFFFFFFFFFFFFFFULL);
  w.i64("i", -42);
  w.f64("f", 0.1);
  w.boolean("b", true);
  w.str("s", "hello\0world");  // literal truncates at NUL; still a string
  const std::string payload = w.take();

  BinReader r{payload};
  EXPECT_EQ(r.u64("u"), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.i64("i"), -42);
  EXPECT_DOUBLE_EQ(r.f64("f"), 0.1);
  EXPECT_TRUE(r.boolean("b"));
  EXPECT_EQ(r.str("s"), "hello");
  r.expectEnd();
}

TEST(BinArchive, DoubleBitPatternsSurvive) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           1.0 / 3.0};
  BinWriter w;
  w.vecF64("v", values);
  const std::string payload = w.take();
  BinReader r{payload};
  const std::vector<double> back = r.vecF64("v");
  ASSERT_EQ(back.size(), std::size(values));
  for (std::size_t i = 0; i < back.size(); ++i) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &values[i], sizeof a);
    std::memcpy(&b, &back[i], sizeof b);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(BinArchive, SectionsAndVectors) {
  BinWriter w;
  w.beginSection("outer");
  const std::vector<std::int64_t> ids{-1, 0, 7};
  const std::vector<int> cores{3, 1, 2};
  w.vecI64("ids", ids);
  w.vecInt("cores", cores);
  w.beginSection("inner");
  w.u64("n", 9);
  w.endSection();
  w.endSection();
  const std::string payload = w.take();

  BinReader r{payload};
  r.beginSection("outer");
  EXPECT_EQ(r.vecI64("ids"), ids);
  EXPECT_EQ(r.vecInt("cores"), cores);
  r.beginSection("inner");
  EXPECT_EQ(r.u64("n"), 9u);
  r.endSection();
  r.endSection();
  r.expectEnd();
}

TEST(BinArchive, WrongFieldNameThrowsWithBothNames) {
  BinWriter w;
  w.u64("expected", 1);
  const std::string payload = w.take();
  BinReader r{payload};
  try {
    (void)r.u64("other");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find("other"), std::string::npos) << what;
  }
}

TEST(BinArchive, WrongTagThrows) {
  BinWriter w;
  w.u64("x", 1);
  const std::string payload = w.take();
  BinReader r{payload};
  EXPECT_THROW((void)r.f64("x"), CheckpointError);
}

TEST(BinArchive, TruncatedPayloadThrowsNotReads) {
  BinWriter w;
  w.str("s", "0123456789");
  const std::string payload = w.take();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    BinReader r{std::string_view{payload}.substr(0, cut)};
    EXPECT_THROW((void)r.str("s"), CheckpointError) << "cut at " << cut;
  }
}

// A vector count saturated to 0xFFFFFFFF (bit rot in a length prefix) must
// fail the bounds check as a CheckpointError before anything is sized from
// it, never as std::bad_alloc from a 32 GiB allocation.
TEST(BinArchive, SaturatedVectorCountThrowsCheckpointError) {
  const std::vector<double> f64s{1.0, 2.0};
  const std::vector<std::int64_t> i64s{1, 2};
  BinWriter w;
  w.vecF64("f", f64s);
  w.vecI64("i", i64s);
  w.vecI64("n", i64s);
  w.vecF64("m", f64s);
  std::string payload = w.take();
  // Each record is tag(1) + name length(4) + 1-byte name + count(4) +
  // 2 x 8 value bytes; the count sits 6 bytes into its record.
  constexpr std::size_t kRecord = 1 + 4 + 1 + 4 + 16;
  for (std::size_t rec = 0; rec < 4; ++rec)
    for (std::size_t b = 0; b < 4; ++b)
      payload[rec * kRecord + 6 + b] = static_cast<char>(0xFF);
  const auto expectRejected = [](auto&& read) {
    try {
      read();
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string{e.what()}.find("truncated"), std::string::npos)
          << e.what();
    }
  };
  for (std::size_t rec = 0; rec < 4; ++rec) {
    BinReader r{std::string_view{payload}.substr(rec * kRecord)};
    switch (rec) {
      case 0: expectRejected([&r] { (void)r.vecF64("f"); }); break;
      case 1: expectRejected([&r] { (void)r.vecI64("i"); }); break;
      case 2: expectRejected([&r] { (void)r.vecInt("n"); }); break;
      default: expectRejected([&r] { (void)r.vecF64Block("m"); }); break;
    }
  }
}

TEST(BinArchive, UnbalancedSectionThrowsOnTake) {
  BinWriter w;
  w.beginSection("open");
  EXPECT_THROW((void)w.take(), CheckpointError);
}

TEST(BinArchive, ExpectEndThrowsOnTrailingBytes) {
  BinWriter w;
  w.u64("a", 1);
  w.u64("b", 2);
  const std::string payload = w.take();
  BinReader r{payload};
  EXPECT_EQ(r.u64("a"), 1u);
  EXPECT_THROW(r.expectEnd(), CheckpointError);
}

TEST(BinArchive, TokenizePathsJoinSections) {
  BinWriter w;
  w.beginSection("machine");
  w.i64("now", 5);
  w.beginSection("thread 3");
  w.f64("executed", 2.5);
  w.endSection();
  w.endSection();
  const std::vector<Token> tokens = tokenize(w.take());
  ASSERT_GE(tokens.size(), 2u);
  bool sawNow = false, sawExecuted = false;
  for (const Token& t : tokens) {
    if (t.path == "machine/now") sawNow = true;
    if (t.path == "machine/thread 3/executed") sawExecuted = true;
  }
  EXPECT_TRUE(sawNow);
  EXPECT_TRUE(sawExecuted);
}

TEST(BinArchive, TokensCompareByBitsNotRendering) {
  BinWriter a, b;
  a.f64("x", 0.0);
  b.f64("x", -0.0);  // renders similarly, different bit pattern
  const std::vector<Token> ta = tokenize(a.take());
  const std::vector<Token> tb = tokenize(b.take());
  ASSERT_EQ(ta.size(), 1u);
  ASSERT_EQ(tb.size(), 1u);
  EXPECT_FALSE(ta[0] == tb[0]);
}

// --- container format -----------------------------------------------------

TEST(CheckpointContainer, EncodeDecodeRoundTrip) {
  const std::string payload = "arbitrary payload bytes \x01\x02";
  EXPECT_EQ(decodeCheckpoint(encodeCheckpoint(payload)), payload);
}

TEST(CheckpointContainer, WrongMagicFails) {
  std::string bytes = encodeCheckpoint("payload");
  bytes[0] = 'X';
  try {
    (void)decodeCheckpoint(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("not a Dike checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointContainer, UnsupportedVersionNamesBothVersions) {
  std::string bytes = encodeCheckpoint("payload");
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);  // version word
  try {
    (void)decodeCheckpoint(bytes);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(kCheckpointVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kCheckpointVersion + 1)),
              std::string::npos)
        << what;
  }
}

TEST(CheckpointContainer, EveryTruncationFails) {
  const std::string bytes = encodeCheckpoint("some payload");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)decodeCheckpoint(std::string_view{bytes}.substr(0, cut)),
        CheckpointError)
        << "cut at " << cut;
  }
}

TEST(CheckpointContainer, TrailingGarbageFails) {
  EXPECT_THROW((void)decodeCheckpoint(encodeCheckpoint("p") + "x"),
               CheckpointError);
}

TEST(CheckpointContainer, EveryPayloadBitFlipFailsChecksum) {
  const std::string payload = "determinism matters";
  const std::string bytes = encodeCheckpoint(payload);
  const std::size_t headerSize = bytes.size() - payload.size();
  for (std::size_t i = headerSize; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW((void)decodeCheckpoint(corrupt), CheckpointError)
        << "flip at byte " << i;
  }
}

TEST(CheckpointContainer, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_test.ckpt";
  writeCheckpointFile(path, "file payload");
  EXPECT_EQ(readCheckpointFile(path), "file payload");
  // No half-written tmp file left behind.
  std::ifstream tmp{path + ".tmp"};
  EXPECT_FALSE(tmp.good());
  EXPECT_THROW((void)readCheckpointFile("/no/such/dir/x.ckpt"),
               CheckpointError);
}

TEST(CheckpointContainer, CorruptFileErrorNamesThePath) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_corrupt.ckpt";
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << "DIKECKPT garbage that is not a valid container";
  }
  try {
    (void)readCheckpointFile(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointContainer, EmptyFileFails) {
  const std::string path = ::testing::TempDir() + "/dike_ckpt_empty.ckpt";
  { std::ofstream out{path, std::ios::binary | std::ios::trunc}; }
  EXPECT_THROW((void)readCheckpointFile(path), CheckpointError);
}

}  // namespace
}  // namespace dike::ckpt
