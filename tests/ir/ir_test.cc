#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/util/str.h"

namespace dfp {
namespace {

TEST(IrBuilder, AssignsUniqueIdsAndRegisters) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t c = b.Const(7);
  uint32_t sum = b.Add(Value::Reg(0), Value::Reg(c));
  b.Ret(Value::Reg(sum));
  EXPECT_EQ(fn.InstrCount(), 3u);
  EXPECT_EQ(ids.count(), 3u);
  EXPECT_NE(c, sum);
  EXPECT_GT(fn.next_vreg(), 2u);
  EXPECT_TRUE(VerifyFunction(fn).empty());
}

TEST(IrBuilder, ObserverSeesEveryInstruction) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  int observed = 0;
  b.SetObserver([&](const IrInstr&) { ++observed; });
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Const(1);
  b.Const(2);
  b.Ret();
  EXPECT_EQ(observed, 3);
}

TEST(IrBuilder, EmitHashMatchesHostHash) {
  // Structural check: the emitted sequence is crc32, crc32, rotr, xor, mul.
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t hash = b.EmitHash(Value::Reg(0));
  b.Ret(Value::Reg(hash));
  const auto& instrs = fn.block(0).instrs;
  ASSERT_EQ(instrs.size(), 6u);
  EXPECT_EQ(instrs[0].op, Opcode::kCrc32);
  EXPECT_EQ(instrs[1].op, Opcode::kCrc32);
  EXPECT_EQ(instrs[2].op, Opcode::kRotr);
  EXPECT_EQ(instrs[3].op, Opcode::kXor);
  EXPECT_EQ(instrs[4].op, Opcode::kMul);
}

// The verifier's messages are part of its contract (CompileFunction prints them on failure):
// each negative case pins the exact text, including the `block[index]` location prefix.
using Problems = std::vector<std::string>;

TEST(IrVerifier, DetectsMissingTerminator) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Const(1);
  EXPECT_EQ(VerifyFunction(fn), Problems{"block entry does not end in a terminator"});
}

TEST(IrVerifier, DetectsBadBranchTarget) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Br(0);
  fn.block(0).instrs.back().target0 = 99;
  EXPECT_EQ(VerifyFunction(fn), Problems{"entry[0]: invalid branch target"});
}

TEST(IrVerifier, DetectsMachineOnlyOpcode) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret();
  IrInstr bad;
  bad.op = Opcode::kLoadSpill;
  bad.dst = fn.NewReg();
  bad.id = ids.Next();
  fn.block(0).instrs.insert(fn.block(0).instrs.begin(), bad);
  EXPECT_EQ(VerifyFunction(fn), Problems{"entry[0]: machine-only opcode in VIR"});
}

TEST(IrVerifier, DetectsDuplicateIds) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Const(1);
  b.Const(2);
  b.Ret();
  fn.block(0).instrs[1].id = fn.block(0).instrs[0].id;
  const uint32_t id = fn.block(0).instrs[0].id;
  EXPECT_EQ(VerifyFunction(fn), Problems{StrFormat("entry[1]: duplicate instruction id %u", id)});
}

TEST(IrVerifier, DetectsEmptyFunctionAndBlock) {
  IrFunction empty("f", 0);
  EXPECT_EQ(VerifyFunction(empty), Problems{"function has no blocks"});

  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret();
  b.CreateBlock("hollow");
  EXPECT_EQ(VerifyFunction(fn), Problems{"block hollow is empty"});
}

TEST(IrVerifier, ReportsEveryProblemInOrder) {
  // Two blocks with several faults each: problems come out in block, then instruction, then
  // check order, each with its own location prefix.
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  const uint32_t entry = b.CreateBlock("entry");
  const uint32_t body = b.CreateBlock("body");
  b.SetInsertPoint(entry);
  b.CondBr(Value::Reg(0), body, body);
  b.SetInsertPoint(body);
  const uint32_t v = b.Load(Opcode::kLoad8, Value::Reg(0), 0);
  b.Store(Opcode::kStore8, Value::Reg(v), Value::Reg(0));
  b.Call(3, {Value::Reg(v)}, true);
  b.Ret();
  std::vector<IrInstr>& head = fn.block(entry).instrs;
  head[0].target1 = 7;
  IrInstr ret;
  ret.op = Opcode::kRet;
  ret.id = ids.Next();
  head.push_back(ret);
  std::vector<IrInstr>& instrs = fn.block(body).instrs;
  instrs[0].dst = kNoVReg;            // Load without destination.
  instrs[0].a = Value::Reg(500);      // Operand out of range.
  instrs[1].b = Value::None();        // Store without address.
  instrs[2].callee = kNoIrCallee;     // Call without callee.
  instrs[2].args[0] = Value::Reg(600);
  instrs[2].dst = 700;                // Destination out of range.
  EXPECT_EQ(VerifyFunction(fn), (Problems{
                                    "entry[0]: terminator in the middle of a block",
                                    "entry[0]: invalid fall-through target",
                                    "body[0]: operand register out of range",
                                    "body[0]: load without destination",
                                    "body[1]: store without address operand",
                                    "body[2]: destination register out of range",
                                    "body[2]: call argument register out of range",
                                    "body[2]: call without callee",
                                }));
}

TEST(IrPrinter, ListingHasLinePerInstruction) {
  IrFunction fn("pipeline", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  uint32_t v = b.Load(Opcode::kLoad4, Value::Reg(0), 8);
  b.CondBr(Value::Reg(v), exit, exit);
  b.SetInsertPoint(exit);
  b.Ret();
  IrListing listing = PrintFunction(fn);
  std::string text = listing.ToString();
  EXPECT_NE(text.find("func pipeline"), std::string::npos);
  EXPECT_NE(text.find("load4"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
  EXPECT_NE(text.find("entry:"), std::string::npos);
  // Each instruction line carries its instruction id.
  int instr_lines = 0;
  for (const IrListingLine& line : listing.lines) {
    if (line.instr_id != kNoIrId) {
      ++instr_lines;
    }
  }
  EXPECT_EQ(instr_lines, 3);
}

TEST(IrPrinter, CommentsAppearInListing) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Load(Opcode::kLoad8, Value::Reg(0), 0, "directory lookup");
  b.Ret();
  EXPECT_NE(PrintFunction(fn).ToString().find("directory lookup"), std::string::npos);
}

}  // namespace
}  // namespace dfp
