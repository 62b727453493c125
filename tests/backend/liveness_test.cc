// Differential test of the word-bitset liveness analysis against a naive set-based fixpoint on
// seeded random control-flow graphs: loops and self-loops, blocks without successors, CondBr
// with both targets on one block, and register counts covering one-, two- and four-word sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/backend/liveness.h"
#include "src/ir/verifier.h"
#include "src/util/random.h"
#include "src/util/str.h"

namespace dfp {
namespace {

Value RandomOperand(Random& rng, uint32_t num_vregs) {
  if (rng.Uniform(0, 3) == 0) {
    return Value::Imm(rng.Uniform(-5, 5));
  }
  return Value::Reg(static_cast<uint32_t>(rng.Uniform(0, num_vregs - 1)));
}

// A random function with `num_vregs` registers (some of them arguments) over 1..12 blocks.
IrFunction RandomFunction(Random& rng, uint32_t num_vregs) {
  const uint8_t num_args = static_cast<uint8_t>(rng.Uniform(0, std::min<uint32_t>(num_vregs, 4)));
  IrFunction fn("random", num_args);
  while (fn.next_vreg() < num_vregs) {
    fn.NewReg();
  }
  const uint32_t num_blocks = static_cast<uint32_t>(rng.Uniform(1, 12));
  for (uint32_t b = 0; b < num_blocks; ++b) {
    fn.AddBlock(StrFormat("b%u", b));
  }
  uint32_t next_id = 0;
  auto block_id = [&] { return static_cast<uint32_t>(rng.Uniform(0, num_blocks - 1)); };
  for (uint32_t b = 0; b < num_blocks; ++b) {
    std::vector<IrInstr>& instrs = fn.block(b).instrs;
    const int64_t body = rng.Uniform(0, 24);
    for (int64_t i = 0; i < body; ++i) {
      IrInstr instr;
      instr.id = next_id++;
      switch (rng.Uniform(0, 4)) {
        case 0:  // Store: uses only.
          instr.op = Opcode::kStore8;
          instr.a = RandomOperand(rng, num_vregs);
          instr.b = Value::Reg(static_cast<uint32_t>(rng.Uniform(0, num_vregs - 1)));
          break;
        case 1:  // Call: argument uses, optional result.
          instr.op = Opcode::kCall;
          instr.callee = 0;
          for (int64_t a = rng.Uniform(0, 3); a > 0; --a) {
            instr.args.push_back(RandomOperand(rng, num_vregs));
          }
          if (rng.Uniform(0, 1) == 0) {
            instr.dst = static_cast<uint32_t>(rng.Uniform(0, num_vregs - 1));
          }
          break;
        case 2:  // Select: three operands.
          instr.op = Opcode::kSelect;
          instr.dst = static_cast<uint32_t>(rng.Uniform(0, num_vregs - 1));
          instr.a = RandomOperand(rng, num_vregs);
          instr.b = RandomOperand(rng, num_vregs);
          instr.c = RandomOperand(rng, num_vregs);
          break;
        default:  // Binary op, sometimes redefining one of its own operands.
          instr.op = Opcode::kAdd;
          instr.dst = static_cast<uint32_t>(rng.Uniform(0, num_vregs - 1));
          instr.a = rng.Uniform(0, 3) == 0 ? Value::Reg(instr.dst) : RandomOperand(rng, num_vregs);
          instr.b = RandomOperand(rng, num_vregs);
          break;
      }
      instrs.push_back(instr);
    }
    IrInstr term;
    term.id = next_id++;
    switch (rng.Uniform(0, 3)) {
      case 0:  // No successors.
        term.op = Opcode::kRet;
        term.a = RandomOperand(rng, num_vregs);
        break;
      case 1:
        term.op = Opcode::kBr;
        term.target0 = block_id();  // May loop back, or to itself.
        break;
      case 2:  // Both targets on one block.
        term.op = Opcode::kCondBr;
        term.a = RandomOperand(rng, num_vregs);
        term.target0 = term.target1 = block_id();
        break;
      default:
        term.op = Opcode::kCondBr;
        term.a = RandomOperand(rng, num_vregs);
        term.target0 = block_id();
        term.target1 = block_id();
        break;
    }
    instrs.push_back(term);
  }
  return fn;
}

struct ReferenceLiveness {
  std::vector<std::set<uint32_t>> live_in;
  std::vector<std::set<uint32_t>> live_out;
};

// The textbook equations over std::set, iterated in forward block order until nothing changes.
ReferenceLiveness NaiveLiveness(const IrFunction& fn) {
  const size_t num_blocks = fn.blocks().size();
  std::vector<std::set<uint32_t>> gen(num_blocks), kill(num_blocks);
  std::vector<std::vector<uint32_t>> successors(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    for (const IrInstr& instr : fn.blocks()[b].instrs) {
      ForEachUse(instr, [&](uint32_t v) {
        if (kill[b].count(v) == 0) {
          gen[b].insert(v);
        }
      });
      if (instr.HasDst()) {
        kill[b].insert(instr.dst);
      }
    }
    const IrInstr& term = fn.blocks()[b].instrs.back();
    if (term.op == Opcode::kBr || term.op == Opcode::kCondBr) {
      successors[b].push_back(term.target0);
    }
    if (term.op == Opcode::kCondBr) {
      successors[b].push_back(term.target1);
    }
  }
  ReferenceLiveness ref;
  ref.live_in.resize(num_blocks);
  ref.live_out.resize(num_blocks);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < num_blocks; ++b) {
      std::set<uint32_t> out;
      for (uint32_t succ : successors[b]) {
        out.insert(ref.live_in[succ].begin(), ref.live_in[succ].end());
      }
      std::set<uint32_t> in = gen[b];
      for (uint32_t v : out) {
        if (kill[b].count(v) == 0) {
          in.insert(v);
        }
      }
      if (in != ref.live_in[b] || out != ref.live_out[b]) {
        ref.live_in[b] = std::move(in);
        ref.live_out[b] = std::move(out);
        changed = true;
      }
    }
  }
  return ref;
}

TEST(LivenessDifferential, MatchesNaiveFixpointOnRandomCfgs) {
  // Edge widths first (word boundaries), then random counts up to 200 (four words).
  std::vector<uint32_t> widths = {1, 2, 63, 64, 65, 127, 128, 129, 192, 193, 200};
  Random rng(20261019);
  while (widths.size() < 300) {
    widths.push_back(static_cast<uint32_t>(rng.Uniform(1, 200)));
  }
  // What the generator produced, so a degenerate generator cannot pass silently.
  int live_past_word_two = 0;
  int self_loops = 0;
  int one_block_condbrs = 0;
  int exits = 0;
  for (size_t seed = 0; seed < widths.size(); ++seed) {
    Random fn_rng(seed * 7919 + 1);
    const IrFunction fn = RandomFunction(fn_rng, widths[seed]);
    ASSERT_TRUE(VerifyFunction(fn).empty()) << "seed " << seed;
    const LivenessInfo info = ComputeLiveness(fn);
    const ReferenceLiveness ref = NaiveLiveness(fn);
    ASSERT_EQ(info.words, (fn.next_vreg() + 63) / 64);
    for (uint32_t b = 0; b < fn.blocks().size(); ++b) {
      const IrInstr& term = fn.block(b).instrs.back();
      self_loops += term.op != Opcode::kRet && term.target0 == b;
      one_block_condbrs += term.op == Opcode::kCondBr && term.target0 == term.target1;
      exits += term.op == Opcode::kRet;
      live_past_word_two += !ref.live_in[b].empty() && *ref.live_in[b].rbegin() >= 128;
      for (uint32_t v = 0; v < fn.next_vreg(); ++v) {
        ASSERT_EQ(info.LiveIn(b, v), ref.live_in[b].count(v) != 0)
            << "seed " << seed << " block " << b << " vreg " << v;
        ASSERT_EQ(info.LiveOut(b, v), ref.live_out[b].count(v) != 0)
            << "seed " << seed << " block " << b << " vreg " << v;
      }
    }
  }
  EXPECT_GT(live_past_word_two, 20);
  EXPECT_GT(self_loops, 20);
  EXPECT_GT(one_block_condbrs, 20);
  EXPECT_GT(exits, 20);
}

TEST(LivenessDifferential, CondBrToOneBlockHasOneSuccessor) {
  IrFunction fn("f", 1);
  fn.AddBlock("entry");
  fn.AddBlock("next");
  IrInstr branch;
  branch.op = Opcode::kCondBr;
  branch.a = Value::Reg(0);
  branch.target0 = branch.target1 = 1;
  fn.block(0).instrs.push_back(branch);
  IrInstr ret;
  ret.op = Opcode::kRet;
  ret.id = 1;
  ret.a = Value::Reg(0);
  fn.block(1).instrs.push_back(ret);
  const Successors successors = BlockSuccessors(fn.block(0));
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors.ids[0], 1u);
  const LivenessInfo info = ComputeLiveness(fn);
  EXPECT_TRUE(info.LiveOut(0, 0));
  EXPECT_TRUE(info.LiveIn(1, 0));
  EXPECT_FALSE(info.LiveOut(1, 0));  // No successors.
}

}  // namespace
}  // namespace dfp
