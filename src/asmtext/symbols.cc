#include "asmtext/ast.h"

namespace lfi::asmtext {

namespace {

uint32_t Hash(std::string_view s) {
  uint32_t h = 2166136261u;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace

uint32_t SymbolTable::Find(std::string_view name) const {
  if (slots_.empty()) return kNoSym;
  const size_t mask = slots_.size() - 1;
  for (size_t k = Hash(name) & mask;; k = (k + 1) & mask) {
    const uint32_t v = slots_[k];
    if (v == 0) return kNoSym;
    if (Name(v - 1) == name) return v - 1;
  }
}

uint32_t SymbolTable::Intern(std::string_view name) {
  // Keep the index at most half full so probes stay short.
  if (2 * (ends_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t k = Hash(name) & mask;
  for (; slots_[k] != 0; k = (k + 1) & mask) {
    if (Name(slots_[k] - 1) == name) return slots_[k] - 1;
  }
  const auto id = static_cast<uint32_t>(ends_.size());
  chars_.append(name);
  ends_.push_back(static_cast<uint32_t>(chars_.size()));
  slots_[k] = id + 1;
  return id;
}

void SymbolTable::Grow() {
  std::vector<uint32_t> slots(slots_.empty() ? 64 : 2 * slots_.size(), 0);
  const size_t mask = slots.size() - 1;
  for (uint32_t id = 0; id < ends_.size(); ++id) {
    size_t k = Hash(Name(id)) & mask;
    while (slots[k] != 0) k = (k + 1) & mask;
    slots[k] = id + 1;
  }
  slots_ = std::move(slots);
}

}  // namespace lfi::asmtext
