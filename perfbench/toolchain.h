// The LFI toolchain as a user drives it (lfi-rewrite, then lfi-as), with
// a span around each layer call.
#ifndef LFI_PERFBENCH_TOOLCHAIN_H_
#define LFI_PERFBENCH_TOOLCHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core.h"
#include "rewriter/rewriter.h"

namespace lfi::perfbench {

struct Built {
  bool ok = false;
  std::vector<uint8_t> elf;
  uint64_t text_bytes = 0;
  rewriter::RewriteStats stats;
};

// Parse -> Rewrite (O2, or no guards for the native baseline) ->
// Assemble -> ELF write. `id` tags the spans; each stage is one unit of
// `clock`, when given. Every input the benchmark builds is valid, so a
// failure is reported on stderr (and counted as a failed operation by the
// caller).
Built BuildModule(Tracer& t, const std::string& src, bool guarded,
                  uint64_t id, UnitClock* clock = nullptr);

}  // namespace lfi::perfbench

#endif  // LFI_PERFBENCH_TOOLCHAIN_H_
