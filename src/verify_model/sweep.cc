#include "verify_model/sweep.h"

#include <bit>
#include <chrono>

namespace lfi::verify_model {

namespace {

using verifier::FailKind;

// The real verifier's verdict for a word sequence (a bare word is a
// sequence of one), through the full Verify() entry point (byte-level,
// so offset conventions match). The words are read in place as the
// little-endian byte stream the verifier takes.
static_assert(std::endian::native == std::endian::little);
Verdict ActualSeq(std::span<const uint32_t> words,
                  const verifier::VerifyOptions& opts) {
  const verifier::VerifyResult r = verifier::Verify(
      {reinterpret_cast<const uint8_t*>(words.data()), words.size_bytes()},
      opts);
  Verdict v;
  if (r.ok) {
    v.ok = true;
  } else {
    v.kind = r.kind;
    v.fail_index = r.fail_offset / 4;
  }
  return v;
}

bool Agree(const Verdict& m, const Verdict& a) {
  if (m.ok != a.ok) return false;
  if (m.ok) return true;
  return m.kind == a.kind && m.fail_index == a.fail_index;
}

void Record(SweepResult* res, const SweepOptions& opts, uint32_t w,
            bool with_suffix, const Verdict& m, const Verdict& a,
            std::string detail) {
  ++res->mismatches;
  if (res->recorded.size() < opts.max_recorded) {
    res->recorded.push_back({w, with_suffix, m, a, std::move(detail)});
  }
}

std::string VerdictStr(const Verdict& v) {
  if (v.ok) return "accept";
  std::string s = "reject(";
  s += verifier::FailKindName(v.kind);
  s += " @";
  s += std::to_string(v.fail_index);
  s += ")";
  return s;
}

// Deterministic stratified sampling: keep every keep_mod-th accepted
// word; when the buffer overflows the target, thin it by 2 and double
// the modulus. The surviving sample is spread across the whole
// enumeration order (i.e. across the class's operand-field space).
struct Sampler {
  size_t target;
  uint64_t keep_mod = 1;
  uint64_t accepted = 0;
  std::vector<uint32_t>* out;

  void Offer(uint32_t w) {
    if (target == 0) return;
    if (accepted++ % keep_mod == 0) {
      out->push_back(w);
      if (out->size() > target) {
        std::vector<uint32_t> kept;
        kept.reserve(out->size() / 2 + 1);
        for (size_t i = 0; i < out->size(); i += 2) kept.push_back((*out)[i]);
        *out = std::move(kept);
        keep_mod *= 2;
      }
    }
  }
};

}  // namespace

SweepResult SweepClass(const arch::EncClassInfo& cls,
                       const SweepOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  SweepResult res;
  res.class_name = cls.name;
  res.enumerated = cls.EncodingCount();

  Sampler sampler{opts.sample_per_class, 1, 0, &res.accepted_sample};
  const uint64_t step =
      (opts.shard_count > 0 ? opts.shard_count : 1) *
      (opts.stride > 0 ? opts.stride : 1);
  const uint64_t first = opts.shard_index % (opts.shard_count > 0
                                                 ? opts.shard_count
                                                 : 1);

  const std::span<const arch::EncClassInfo> all = arch::AllEncClasses();
  const size_t cls_index = static_cast<size_t>(&cls - all.data());

  std::vector<MFacts> seq;  // reused suffix-sequence buffer
  for (uint64_t i = first; i < res.enumerated; i += step) {
    const uint32_t w = cls.WordAt(i);
    ++res.checked;

    // Self-check: the word must land back in this class. A word claimed
    // by an EARLIER class is shadowed (class spaces may overlap; decode
    // order wins, e.g. pair-space words whose opc/mode bits spell a
    // logical-shift) and is swept by that class's own enumeration. A
    // word claimed by a LATER class (or none) means the table's order
    // diverges from the decoder's dispatch — a metadata bug.
    if (const arch::EncClassInfo* owner = arch::ClassifyWord(w);
        owner != &cls) {
      const size_t owner_index =
          owner == nullptr ? all.size()
                           : static_cast<size_t>(owner - all.data());
      if (owner_index < cls_index) {
        ++res.shadowed;
      } else {
        Record(&res, opts, w, false, {}, {},
               "ClassifyWord attributes this word to a later class");
      }
      continue;
    }

    const MFacts facts = ExtractFacts(&cls, w);

    // Bare word: both sides must agree on accept/reject and FailKind.
    Verdict model;
    if (!facts.decodable) {
      model.kind = FailKind::kUndecodable;
    } else {
      const FailKind k = CheckFacts({&facts, 1}, 0, opts.verify);
      if (k == FailKind::kNone) model.ok = true;
      else model.kind = k;
    }
    if (opts.model_override) opts.model_override(facts, &model);
    const Verdict actual = ActualSeq({&w, 1}, opts.verify);
    if (!Agree(model, actual)) {
      Record(&res, opts, w, false, model, actual,
             "bare: model " + VerdictStr(model) + " vs verifier " +
                 VerdictStr(actual));
    }
    if (actual.ok) {
      ++res.accepted;
      sampler.Offer(w);
    }

    // Context-dependent word: sweep again with the discharge suffix.
    if (facts.decodable) {
      const std::vector<uint32_t> suffix = DischargeSuffix(facts, opts.verify);
      if (!suffix.empty()) {
        ++res.suffixed;
        std::vector<uint32_t> words;
        words.reserve(1 + suffix.size());
        words.push_back(w);
        words.insert(words.end(), suffix.begin(), suffix.end());
        seq.clear();
        for (uint32_t sw : words) seq.push_back(ExtractFacts(sw));
        Verdict smodel = PredictVerdict(seq, opts.verify);
        if (opts.model_override) opts.model_override(facts, &smodel);
        const Verdict sactual = ActualSeq(words, opts.verify);
        if (!Agree(smodel, sactual)) {
          Record(&res, opts, w, true, smodel, sactual,
                 "with suffix: model " + VerdictStr(smodel) +
                     " vs verifier " + VerdictStr(sactual));
        }
        if (sactual.ok) {
          ++res.accepted;
          sampler.Offer(w);
        }
      }
    }
  }

  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

std::vector<SweepResult> SweepAll(const SweepOptions& opts) {
  std::vector<SweepResult> out;
  for (const arch::EncClassInfo& cls : arch::AllEncClasses()) {
    out.push_back(SweepClass(cls, opts));
  }
  return out;
}

}  // namespace lfi::verify_model
