#include "src/backend/liveness.h"

namespace dfp {

Successors BlockSuccessors(const IrBlock& block) {
  Successors successors;
  if (block.instrs.empty()) {
    return successors;
  }
  const IrInstr& term = block.instrs.back();
  if (term.op == Opcode::kBr) {
    successors.ids[successors.count++] = term.target0;
  } else if (term.op == Opcode::kCondBr) {
    successors.ids[successors.count++] = term.target0;
    if (term.target1 != term.target0) {
      successors.ids[successors.count++] = term.target1;
    }
  }
  return successors;
}

LivenessInfo ComputeLiveness(const IrFunction& function) {
  const uint32_t num_vregs = function.next_vreg();
  const size_t num_blocks = function.blocks().size();
  const size_t words = (size_t{num_vregs} + 63) / 64;
  LivenessInfo info;
  info.words = static_cast<uint32_t>(words);
  info.live_in.assign(num_blocks * words, 0);
  info.live_out.assign(num_blocks * words, 0);

  // Per-block gen (upward-exposed uses) and kill (definitions) sets, and successors.
  std::vector<uint64_t> gen(num_blocks * words, 0), kill(num_blocks * words, 0);
  std::vector<Successors> successors(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    uint64_t* block_gen = gen.data() + b * words;
    uint64_t* block_kill = kill.data() + b * words;
    for (const IrInstr& instr : function.blocks()[b].instrs) {
      ForEachUse(instr, [&](uint32_t vreg) {
        if (!TestBit(block_kill, vreg)) {
          SetBit(block_gen, vreg);
        }
      });
      if (instr.HasDst()) {
        SetBit(block_kill, instr.dst);
      }
    }
    successors[b] = BlockSuccessors(function.blocks()[b]);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = num_blocks; b-- > 0;) {
      uint64_t* live_in = info.live_in.data() + b * words;
      uint64_t* live_out = info.live_out.data() + b * words;
      // live_out = union of successors' live_in.
      for (uint32_t succ : successors[b]) {
        const uint64_t* succ_in = info.live_in.data() + size_t{succ} * words;
        for (size_t w = 0; w < words; ++w) {
          const uint64_t added = succ_in[w] & ~live_out[w];
          if (added != 0) {
            live_out[w] |= added;
            changed = true;
          }
        }
      }
      // live_in = gen | (live_out & ~kill).
      const uint64_t* block_gen = gen.data() + b * words;
      const uint64_t* block_kill = kill.data() + b * words;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t added = (block_gen[w] | (live_out[w] & ~block_kill[w])) & ~live_in[w];
        if (added != 0) {
          live_in[w] |= added;
          changed = true;
        }
      }
    }
  }
  return info;
}

}  // namespace dfp
