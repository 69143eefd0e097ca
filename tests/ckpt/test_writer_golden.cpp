// Golden bytes for the checkpoint archive writer. The run-level digests in
// tests/exp/test_checkpoint_digest.cpp catch any change to checkpoint bytes
// but cannot say which layer moved; this pin covers every record tag and
// the encoding corner cases in one hand-checked archive, so a writer
// regression fails here, next to the writer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"

namespace dike::ckpt {
namespace {

std::string toHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// A quiet NaN with a payload: the archive stores raw bit patterns, so the
// payload must survive.
constexpr std::uint64_t kNanBits = 0x7FF8000000000ABCULL;

void writeGolden(BinWriter& w) {
  w.beginSection("run");
  w.u64("u", 0x0123456789ABCDEFULL);
  w.i64("i", -2);
  w.f64("", std::bit_cast<double>(kNanBits));  // zero-length name
  w.boolean("b", true);
  w.str("s", "hi");
  const std::vector<double> one{1.0};
  w.vecF64("vf", one);
  w.vecF64("e", std::vector<double>{});
  const std::vector<std::int64_t> minusOne{-1};
  w.vecI64("vi", minusOne);
  const std::vector<int> ints{7, -3};
  w.vecInt("n", ints);
  w.beginSection("in");
  w.endSection();
  w.endSection();
}

// Record layout: tag byte, u32 name length, name, value; integers
// little-endian.
const std::string kGoldenHex =
    "08" "03000000" "72756e"                                  // begin run
    "01" "01000000" "75" "efcdab8967452301"                   // u64 u
    "02" "01000000" "69" "feffffffffffffff"                   // i64 i = -2
    "03" "00000000" "bc0a00000000f87f"                        // f64 "" NaN
    "04" "01000000" "62" "01"                                 // bool b
    "05" "01000000" "73" "02000000" "6869"                    // str s "hi"
    "06" "02000000" "7666" "01000000" "000000000000f03f"      // vf {1.0}
    "06" "01000000" "65" "00000000"                           // e {}
    "07" "02000000" "7669" "01000000" "ffffffffffffffff"      // vi {-1}
    "07" "01000000" "6e" "02000000"                           // n {7, -3}
    "0700000000000000" "fdffffffffffffff"
    "08" "02000000" "696e"                                    // begin in
    "09" "02000000" "696e"                                    // end in
    "09" "03000000" "72756e";                                 // end run

TEST(WriterGolden, EveryTagMatchesPinnedBytes) {
  BinWriter w;
  writeGolden(w);
  EXPECT_EQ(toHex(w.take()), kGoldenHex);
}

TEST(WriterGolden, ReusedBufferWritesTheSameBytes) {
  BinWriter first;
  writeGolden(first);
  std::string buffer = first.take();
  buffer += "stale tail";  // whatever the buffer held is discarded
  BinWriter again{std::move(buffer)};
  writeGolden(again);
  EXPECT_EQ(toHex(again.take()), kGoldenHex);
}

TEST(WriterGolden, ReaderDecodesThePinnedBytes) {
  BinWriter w;
  writeGolden(w);
  const std::string bytes = w.take();
  BinReader r{bytes};
  r.beginSection("run");
  EXPECT_EQ(r.u64("u"), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64("i"), -2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("")), kNanBits);
  EXPECT_TRUE(r.boolean("b"));
  EXPECT_EQ(r.str("s"), "hi");
  EXPECT_EQ(r.vecF64("vf"), std::vector<double>{1.0});
  const F64Block empty = r.vecF64Block("e");
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(r.vecI64("vi"), std::vector<std::int64_t>{-1});
  EXPECT_EQ(r.vecInt("n"), (std::vector<int>{7, -3}));
  r.beginSection("in");
  r.endSection();
  r.endSection();
  r.expectEnd();
}

}  // namespace
}  // namespace dike::ckpt
