#include "src/ir/verifier.h"

#include <unordered_set>

#include "src/util/str.h"

namespace dfp {
namespace {

bool ValidOperand(const Value& value, const IrFunction& function) {
  return !value.IsReg() || value.vreg < function.next_vreg();
}

}  // namespace

std::vector<std::string> VerifyFunction(const IrFunction& function) {
  std::vector<std::string> problems;
  auto problem = [&](const std::string& text) { problems.push_back(text); };

  if (function.blocks().empty()) {
    problem("function has no blocks");
    return problems;
  }
  std::unordered_set<uint32_t> seen_ids;
  seen_ids.reserve(function.InstrCount());
  for (uint32_t b = 0; b < function.blocks().size(); ++b) {
    const IrBlock& block = function.block(b);
    if (block.instrs.empty()) {
      problem(StrFormat("block %s is empty", block.name.c_str()));
      continue;
    }
    if (!IsTerminator(block.instrs.back().op)) {
      problem(StrFormat("block %s does not end in a terminator", block.name.c_str()));
    }
    for (size_t i = 0; i < block.instrs.size(); ++i) {
      const IrInstr& instr = block.instrs[i];
      // Problems located at this instruction, prefixed "block[index]: ".
      auto problem_here = [&](const std::string& text) {
        problem(StrFormat("%s[%zu]: ", block.name.c_str(), i) + text);
      };
      if (IsTerminator(instr.op) && i + 1 != block.instrs.size()) {
        problem_here("terminator in the middle of a block");
      }
      if (instr.op == Opcode::kLoadSpill || instr.op == Opcode::kStoreSpill) {
        problem_here("machine-only opcode in VIR");
      }
      if (!seen_ids.insert(instr.id).second) {
        problem_here(StrFormat("duplicate instruction id %u", instr.id));
      }
      if (instr.HasDst() && instr.dst >= function.next_vreg()) {
        problem_here("destination register out of range");
      }
      if (!ValidOperand(instr.a, function) || !ValidOperand(instr.b, function) ||
          !ValidOperand(instr.c, function)) {
        problem_here("operand register out of range");
      }
      for (const Value& arg : instr.args) {
        if (!ValidOperand(arg, function)) {
          problem_here("call argument register out of range");
        }
      }
      if (instr.op == Opcode::kBr || instr.op == Opcode::kCondBr) {
        if (instr.target0 >= function.blocks().size()) {
          problem_here("invalid branch target");
        }
        if (instr.op == Opcode::kCondBr && instr.target1 >= function.blocks().size()) {
          problem_here("invalid fall-through target");
        }
      }
      if (instr.op == Opcode::kCall && instr.callee == kNoIrCallee) {
        problem_here("call without callee");
      }
      if (IsLoad(instr.op) && !instr.HasDst()) {
        problem_here("load without destination");
      }
      if (IsStore(instr.op) && instr.b.IsNone()) {
        problem_here("store without address operand");
      }
    }
  }
  return problems;
}

}  // namespace dfp
