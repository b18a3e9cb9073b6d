// ELF writer/reader tests.

#include <gtest/gtest.h>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/elf.h"

namespace lfi::elf {
namespace {

ElfImage SampleImage() {
  ElfImage img;
  img.entry = 0x10000;
  img.segments.push_back(
      {0x10000, {0x1f, 0x20, 0x03, 0xd5}, 4, true, false, true});
  img.segments.push_back({0x20000, {1, 2, 3}, 3, true, false, false});
  Segment data;
  data.vaddr = 0x30000;
  data.data = {9, 8, 7, 6};
  data.memsz = 4096;  // trailing bss
  data.write = true;
  img.segments.push_back(data);
  return img;
}

TEST(Elf, WriteReadRoundTrip) {
  const ElfImage in = SampleImage();
  const std::vector<uint8_t> bytes = Write(in);
  auto out = Read({bytes.data(), bytes.size()});
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out->entry, in.entry);
  ASSERT_EQ(out->segments.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out->segments[k].vaddr, in.segments[k].vaddr);
    EXPECT_EQ(out->segments[k].data, in.segments[k].data);
    EXPECT_EQ(out->segments[k].memsz, in.segments[k].memsz);
    EXPECT_EQ(out->segments[k].exec, in.segments[k].exec);
    EXPECT_EQ(out->segments[k].write, in.segments[k].write);
  }
}

TEST(Elf, RejectsCorruptInput) {
  const ElfImage in = SampleImage();
  std::vector<uint8_t> bytes = Write(in);
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 0;
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
  // Wrong machine.
  {
    auto bad = bytes;
    bad[18] = 0x3e;  // x86-64
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
  // Truncated.
  EXPECT_FALSE(Read({bytes.data(), 32}).ok());
  // Segment pointing out of bounds.
  {
    auto bad = bytes;
    // p_offset of first phdr at 64 + 8.
    bad[64 + 8] = 0xff;
    bad[64 + 9] = 0xff;
    bad[64 + 10] = 0xff;
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
}

// e_phoff near 2^64: phoff + 56 wraps to a small number that passes a
// naive bounds check, and the header reads would land far outside the
// buffer.
TEST(Elf, RejectsWrappingProgramHeaderOffset) {
  std::vector<uint8_t> bytes = Write(SampleImage());
  const uint64_t phoff = ~uint64_t{0} - 15;  // phoff + 56 wraps to 40
  for (int k = 0; k < 8; ++k) bytes[32 + k] = (phoff >> (8 * k)) & 0xff;
  auto r = Read({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "elf: program header offset overflows");
}

TEST(Elf, FromAssembledBuildsExpectedSegments) {
  auto f = asmtext::Parse(R"(
.text
_start:
  nop
  ret
.data
v:
  .quad 42
.bss
buf:
  .zero 100
)");
  ASSERT_TRUE(f.ok());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  ASSERT_TRUE(img.ok());
  const ElfImage e = FromAssembled(*img);
  ASSERT_EQ(e.segments.size(), 2u);  // text + data(+bss)
  EXPECT_TRUE(e.segments[0].exec);
  EXPECT_FALSE(e.segments[0].write);
  EXPECT_TRUE(e.segments[1].write);
  // data+bss memsz spans through the end of bss.
  EXPECT_GE(e.segments[1].memsz, 8u + 100u);
}

}  // namespace
}  // namespace lfi::elf
