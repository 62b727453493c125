#include <gtest/gtest.h>

#include "src/backend/liveness.h"
#include "src/backend/regalloc.h"
#include "src/ir/builder.h"

namespace dfp {
namespace {

TEST(Liveness, StraightLine) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t x = b.Add(Value::Reg(0), Value::Imm(1));
  uint32_t y = b.Mul(Value::Reg(x), Value::Imm(2));
  b.Ret(Value::Reg(y));
  LivenessInfo info = ComputeLiveness(fn);
  // Argument 0 is upward-exposed in the entry block.
  EXPECT_TRUE(info.LiveIn(0, 0));
  EXPECT_FALSE(info.LiveOut(0, y));  // No successors.
}

TEST(Liveness, LoopCarriedValueIsLiveAroundTheLoop) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  uint32_t acc = b.Const(0);
  uint32_t i = b.Const(0);
  b.Br(head);
  b.SetInsertPoint(head);
  uint32_t cond = b.CmpLt(Value::Reg(i), Value::Reg(0));
  b.CondBr(Value::Reg(cond), body, exit);
  b.SetInsertPoint(body);
  b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(i));
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);
  b.SetInsertPoint(exit);
  b.Ret(Value::Reg(acc));
  LivenessInfo info = ComputeLiveness(fn);
  // The accumulator is live into and out of every loop block.
  EXPECT_TRUE(info.LiveIn(head, acc));
  EXPECT_TRUE(info.LiveOut(body, acc));
  EXPECT_TRUE(info.LiveIn(body, acc));
  EXPECT_TRUE(info.LiveOut(head, acc));
}

TEST(Liveness, BlockSuccessors) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t a = b.CreateBlock("a");
  uint32_t c = b.CreateBlock("c");
  b.SetInsertPoint(entry);
  uint32_t cond = b.Const(1);
  b.CondBr(Value::Reg(cond), a, c);
  b.SetInsertPoint(a);
  b.Ret();
  b.SetInsertPoint(c);
  b.Ret();
  Successors successors = BlockSuccessors(fn.block(entry));
  EXPECT_EQ(successors.size(), 2u);
  EXPECT_TRUE(BlockSuccessors(fn.block(a)).empty());
}

IrFunction ManyLiveValues(int count) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  std::vector<uint32_t> values;
  for (int i = 0; i < count; ++i) {
    values.push_back(b.Add(Value::Reg(0), Value::Imm(i)));
  }
  uint32_t acc = b.Const(0);
  for (int i = count - 1; i >= 0; --i) {
    b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(values[static_cast<size_t>(i)]));
  }
  b.Ret(Value::Reg(acc));
  return fn;
}

TEST(RegAlloc, NoSpillsUnderLowPressure) {
  IrFunction fn = ManyLiveValues(8);
  Allocation allocation = AllocateRegisters(fn, /*reserve_tag_register=*/false);
  EXPECT_EQ(allocation.spilled_vregs, 0u);
}

TEST(RegAlloc, SpillsUnderHighPressure) {
  IrFunction fn = ManyLiveValues(30);
  Allocation allocation = AllocateRegisters(fn, /*reserve_tag_register=*/false);
  EXPECT_GT(allocation.spilled_vregs, 0u);
  EXPECT_EQ(allocation.spill_slot_count, allocation.spilled_vregs);
  // Spilled vregs get distinct slots; allocated ones get valid registers.
  std::set<uint16_t> slots;
  for (uint32_t v = 0; v < fn.next_vreg(); ++v) {
    const VRegLocation& loc = allocation.loc(v);
    if (!loc.allocated) {
      continue;
    }
    if (loc.spilled) {
      EXPECT_TRUE(slots.insert(loc.slot).second);
    } else {
      EXPECT_TRUE(loc.preg <= kLastAllocatable || loc.preg == kTagReg);
      EXPECT_NE(loc.preg, kScratch0);
      EXPECT_NE(loc.preg, kScratch1);
      EXPECT_NE(loc.preg, kScratch2);
    }
  }
}

TEST(RegAlloc, ReservingTagRegisterIncreasesSpills) {
  IrFunction with = ManyLiveValues(16);
  IrFunction without = ManyLiveValues(16);
  Allocation reserved = AllocateRegisters(with, /*reserve_tag_register=*/true);
  Allocation free_alloc = AllocateRegisters(without, /*reserve_tag_register=*/false);
  EXPECT_GE(reserved.spilled_vregs, free_alloc.spilled_vregs);
  // r15 never assigned when reserved.
  for (uint32_t v = 0; v < with.next_vreg(); ++v) {
    if (reserved.loc(v).allocated && !reserved.loc(v).spilled) {
      EXPECT_NE(reserved.loc(v).preg, kTagReg);
    }
  }
}

TEST(RegAlloc, TagRegisterNeverHostsCallCrossingRanges) {
  // A value live across a call must not land in r15 (callees may use it).
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  // 13 values live across the call: saturates r0..r12, tempting the allocator with r15.
  std::vector<uint32_t> values;
  for (int i = 0; i < 13; ++i) {
    values.push_back(b.Add(Value::Reg(0), Value::Imm(i)));
  }
  b.Call(0, {Value::Reg(values[0])}, /*has_result=*/false);
  uint32_t acc = b.Const(0);
  for (uint32_t v : values) {
    b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(v));
  }
  b.Ret(Value::Reg(acc));
  Allocation allocation = AllocateRegisters(fn, /*reserve_tag_register=*/false);
  for (uint32_t v : values) {
    if (allocation.loc(v).allocated && !allocation.loc(v).spilled) {
      EXPECT_NE(allocation.loc(v).preg, kTagReg) << "vreg " << v;
    }
  }
}

TEST(RegAlloc, ArgumentsPreferTheirIncomingRegisters) {
  IrFunction fn("f", 3);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t sum = b.Add(Value::Reg(0), Value::Reg(1));
  uint32_t total = b.Add(Value::Reg(sum), Value::Reg(2));
  b.Ret(Value::Reg(total));
  Allocation allocation = AllocateRegisters(fn, false);
  EXPECT_EQ(allocation.loc(0).preg, 0);
  EXPECT_EQ(allocation.loc(1).preg, 1);
  EXPECT_EQ(allocation.loc(2).preg, 2);
}

TEST(RegAlloc, DisjointLifetimesShareRegisters) {
  // Sequential short-lived values reuse a small number of registers.
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t acc = b.Const(0);
  for (int i = 0; i < 40; ++i) {
    uint32_t t = b.Add(Value::Reg(0), Value::Imm(i));  // Dead right after the next add.
    b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(t));
  }
  b.Ret(Value::Reg(acc));
  Allocation allocation = AllocateRegisters(fn, false);
  EXPECT_EQ(allocation.spilled_vregs, 0u);
}

}  // namespace
}  // namespace dfp
