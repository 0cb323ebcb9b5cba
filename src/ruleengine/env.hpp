// Runtime register file of a rule program: one slot per VARIABLE element,
// domain-checked on every write. This models the router's register block —
// the "state" half of the algorithm = state + rules decomposition.
//
// Besides the name-keyed interface used by the interpreter and tests, the
// register file exposes an index-keyed fast path (variable id = position in
// Program::variables) used by the bytecode VM.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ruleengine/ast.hpp"

namespace flexrouter::rules {

class RuleEnv {
 public:
  explicit RuleEnv(const Program& prog) : prog_(&prog) { reset(); }

  RuleEnv(const RuleEnv& o) : prog_(o.prog_), storage_(o.storage_) {
    rebuild_slots();
  }
  RuleEnv& operator=(const RuleEnv& o) {
    prog_ = o.prog_;
    storage_ = o.storage_;
    rebuild_slots();
    return *this;
  }

  /// Reinitialise all registers to their INIT values (or the first domain
  /// value when none is declared). Storage vectors are reassigned in place,
  /// so slot pointers handed out before stay valid.
  void reset() {
    for (const VarDecl& v : prog_->variables) {
      const Value init = v.init.value_or(v.domain.value_at(0));
      const auto count =
          static_cast<std::size_t>(v.is_array() ? v.array_size : 1);
      storage_[v.name].assign(count, init);
    }
    if (slots_.size() != prog_->variables.size()) rebuild_slots();
  }

  const Value& get(const std::string& name, std::int64_t index = 0) const {
    const auto [decl, slot] = locate(name, index);
    (void)decl;
    return slot->at(static_cast<std::size_t>(index));
  }

  void set(const std::string& name, std::int64_t index, Value value) {
    const auto [decl, slot] = locate(name, index);
    FR_REQUIRE_MSG(decl->domain.contains(value),
                   "assignment outside domain of '" + name + "'");
    (*const_cast<std::vector<Value>*>(slot))[static_cast<std::size_t>(index)] =
        std::move(value);
  }

  /// Index-keyed access: `var_id` is the position in Program::variables.
  /// Semantics (checks, messages) match the name-keyed interface exactly.
  const Value& get_by_id(std::int32_t var_id, std::int64_t index) const {
    const VarDecl& d = prog_->variables[static_cast<std::size_t>(var_id)];
    FR_REQUIRE_MSG(index >= 0 && index < (d.is_array() ? d.array_size : 1),
                   "index out of range for '" + d.name + "'");
    return (*slots_[static_cast<std::size_t>(var_id)])
        [static_cast<std::size_t>(index)];
  }

  void set_by_id(std::int32_t var_id, std::int64_t index, Value value) {
    const VarDecl& d = prog_->variables[static_cast<std::size_t>(var_id)];
    FR_REQUIRE_MSG(index >= 0 && index < (d.is_array() ? d.array_size : 1),
                   "index out of range for '" + d.name + "'");
    FR_REQUIRE_MSG(d.domain.contains(value),
                   "assignment outside domain of '" + d.name + "'");
    (*slots_[static_cast<std::size_t>(var_id)])
        [static_cast<std::size_t>(index)] = std::move(value);
  }

  const Program& program() const { return *prog_; }

  friend bool operator==(const RuleEnv& a, const RuleEnv& b) {
    return a.storage_ == b.storage_;
  }

 private:
  void rebuild_slots() {
    slots_.clear();
    slots_.reserve(prog_->variables.size());
    for (const VarDecl& v : prog_->variables) slots_.push_back(&storage_[v.name]);
  }

  std::pair<const VarDecl*, const std::vector<Value>*> locate(
      const std::string& name, std::int64_t index) const {
    const VarDecl* decl = prog_->find_variable(name);
    FR_REQUIRE_MSG(decl != nullptr, "unknown variable '" + name + "'");
    const auto it = storage_.find(name);
    FR_ASSERT(it != storage_.end());
    const auto count = decl->is_array() ? decl->array_size : 1;
    FR_REQUIRE_MSG(index >= 0 && index < count,
                   "index out of range for '" + name + "'");
    return {decl, &it->second};
  }

  const Program* prog_;
  std::map<std::string, std::vector<Value>> storage_;
  std::vector<std::vector<Value>*> slots_;  // parallel to prog_->variables
};

}  // namespace flexrouter::rules
