// Virtual-register liveness analysis over the (non-SSA) VIR control-flow graph.
//
// Used by dead-code elimination and by the register allocator's live-interval construction.
#ifndef DFP_SRC_BACKEND_LIVENESS_H_
#define DFP_SRC_BACKEND_LIVENESS_H_

#include <cstdint>
#include <vector>

#include "src/ir/instr.h"

namespace dfp {

// Single-bit access to a word bitset: bit b lives at bit b % 64 of word b / 64.
inline bool TestBit(const uint64_t* set, uint32_t bit) { return (set[bit / 64] >> (bit % 64)) & 1; }
inline void SetBit(uint64_t* set, uint32_t bit) { set[bit / 64] |= uint64_t{1} << (bit % 64); }
inline void ClearBit(uint64_t* set, uint32_t bit) { set[bit / 64] &= ~(uint64_t{1} << (bit % 64)); }

// Per-block live-in and live-out sets as flat word bitsets over virtual registers: each block
// owns `words` = ceil(vregs / 64) consecutive words.
struct LivenessInfo {
  uint32_t words = 0;
  std::vector<uint64_t> live_in;   // Block b's set is live_in[b * words, (b + 1) * words).
  std::vector<uint64_t> live_out;

  const uint64_t* LiveInWords(uint32_t block) const {
    return live_in.data() + size_t{block} * words;
  }
  const uint64_t* LiveOutWords(uint32_t block) const {
    return live_out.data() + size_t{block} * words;
  }
  bool LiveIn(uint32_t block, uint32_t vreg) const { return TestBit(LiveInWords(block), vreg); }
  bool LiveOut(uint32_t block, uint32_t vreg) const { return TestBit(LiveOutWords(block), vreg); }
};

// Successor block ids of a block's terminator: none, one, or two distinct blocks.
struct Successors {
  uint32_t ids[2] = {kNoBlock, kNoBlock};
  uint32_t count = 0;

  const uint32_t* begin() const { return ids; }
  const uint32_t* end() const { return ids + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
};

Successors BlockSuccessors(const IrBlock& block);

// Iterative backward dataflow to a fixpoint.
LivenessInfo ComputeLiveness(const IrFunction& function);

// Calls `fn(vreg)` for every register operand the instruction reads.
template <typename Fn>
void ForEachUse(const IrInstr& instr, Fn&& fn) {
  if (instr.a.IsReg()) {
    fn(instr.a.vreg);
  }
  if (instr.b.IsReg()) {
    fn(instr.b.vreg);
  }
  if (instr.c.IsReg()) {
    fn(instr.c.vreg);
  }
  for (const Value& arg : instr.args) {
    if (arg.IsReg()) {
      fn(arg.vreg);
    }
  }
}

// True if the instruction has no observable effect besides writing its destination register.
// Loads count as pure: eliminating a dead load changes timing but not results.
inline bool IsPure(const IrInstr& instr) {
  switch (instr.op) {
    case Opcode::kCall:
    case Opcode::kBr:
    case Opcode::kCondBr:
    case Opcode::kRet:
    case Opcode::kSetTag:
    case Opcode::kStore1:
    case Opcode::kStore2:
    case Opcode::kStore4:
    case Opcode::kStore8:
      return false;
    default:
      return true;
  }
}

// True if the instruction's value can be computed at compile time from constant operands.
// Loads and GetTag are excluded (their value depends on runtime state); division is excluded
// when the divisor is zero (the trap must stay).
inline bool IsFoldable(const IrInstr& instr) {
  if (!IsPure(instr) || IsLoad(instr.op) || instr.op == Opcode::kGetTag ||
      instr.op == Opcode::kSelect) {
    return false;
  }
  return instr.HasDst();
}

}  // namespace dfp

#endif  // DFP_SRC_BACKEND_LIVENESS_H_
