#include "src/backend/regalloc.h"

#include <algorithm>
#include <bit>

#include "src/backend/liveness.h"
#include "src/util/check.h"

namespace dfp {
namespace {

struct Interval {
  uint32_t vreg = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool crosses_call = false;
};

}  // namespace

Allocation AllocateRegisters(const IrFunction& function, bool reserve_tag_register) {
  const uint32_t num_vregs = function.next_vreg();
  Allocation result;
  result.locations.resize(num_vregs);

  // --- Build live intervals over a linearization of the blocks. ---
  LivenessInfo liveness = ComputeLiveness(function);
  std::vector<Interval> intervals(num_vregs);
  std::vector<bool> seen(num_vregs, false);
  for (uint32_t v = 0; v < num_vregs; ++v) {
    intervals[v].vreg = v;
    intervals[v].lo = ~0u;
    intervals[v].hi = 0;
  }
  auto extend = [&](uint32_t vreg, uint32_t pos) {
    seen[vreg] = true;
    intervals[vreg].lo = std::min(intervals[vreg].lo, pos);
    intervals[vreg].hi = std::max(intervals[vreg].hi, pos);
  };

  std::vector<uint32_t> call_positions;
  uint32_t pos = 0;
  for (uint32_t b = 0; b < function.blocks().size(); ++b) {
    const IrBlock& block = function.block(b);
    const uint32_t block_start = pos;
    for (const IrInstr& instr : block.instrs) {
      ForEachUse(instr, [&](uint32_t vreg) { extend(vreg, pos); });
      if (instr.HasDst()) {
        extend(instr.dst, pos);
      }
      if (instr.op == Opcode::kCall) {
        call_positions.push_back(pos);
      }
      ++pos;
    }
    const uint32_t block_end = pos;  // One past the last instruction.
    for (uint32_t w = 0; w < liveness.words; ++w) {
      for (uint64_t bits = liveness.LiveInWords(b)[w]; bits != 0; bits &= bits - 1) {
        extend(w * 64 + static_cast<uint32_t>(std::countr_zero(bits)), block_start);
      }
      for (uint64_t bits = liveness.LiveOutWords(b)[w]; bits != 0; bits &= bits - 1) {
        extend(w * 64 + static_cast<uint32_t>(std::countr_zero(bits)), block_end);
      }
    }
  }
  // Arguments are defined at entry (they arrive in r0..rN).
  for (uint8_t i = 0; i < function.num_args(); ++i) {
    if (seen[i]) {
      extend(i, 0);
    }
  }

  for (Interval& interval : intervals) {
    if (!seen[interval.vreg]) {
      continue;
    }
    for (uint32_t call_pos : call_positions) {
      if (interval.lo < call_pos && call_pos < interval.hi) {
        interval.crosses_call = true;
        break;
      }
    }
  }

  // --- Linear scan. ---
  std::vector<Interval> order;
  order.reserve(num_vregs);
  for (uint32_t v = 0; v < num_vregs; ++v) {
    if (seen[v]) {
      order.push_back(intervals[v]);
    }
  }
  std::sort(order.begin(), order.end(), [](const Interval& a, const Interval& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.vreg < b.vreg;
  });

  const bool tag_reg_available = !reserve_tag_register;
  std::vector<bool> in_use(kNumPhysRegs, false);
  struct Active {
    Interval interval;
    uint8_t preg;
  };
  std::vector<Active> active;

  auto take_free_reg = [&](const Interval& interval) -> uint8_t {
    // Prefer the argument's incoming register to avoid a prologue move.
    if (interval.vreg < function.num_args()) {
      const uint8_t hint = static_cast<uint8_t>(interval.vreg);
      if (hint <= kLastAllocatable && !in_use[hint]) {
        return hint;
      }
    }
    for (uint8_t reg = kFirstAllocatable; reg <= kLastAllocatable; ++reg) {
      if (!in_use[reg]) {
        return reg;
      }
    }
    if (tag_reg_available && !in_use[kTagReg] && !interval.crosses_call) {
      return kTagReg;
    }
    return kNoPhysReg;
  };

  auto assign_slot = [&](uint32_t vreg) {
    VRegLocation& loc = result.locations[vreg];
    loc.allocated = true;
    loc.spilled = true;
    loc.slot = result.spill_slot_count++;
    ++result.spilled_vregs;
  };

  for (const Interval& interval : order) {
    // Expire intervals that ended before this one starts.
    for (size_t i = active.size(); i-- > 0;) {
      if (active[i].interval.hi < interval.lo) {
        in_use[active[i].preg] = false;
        active.erase(active.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    const uint8_t reg = take_free_reg(interval);
    if (reg != kNoPhysReg) {
      in_use[reg] = true;
      VRegLocation& loc = result.locations[interval.vreg];
      loc.allocated = true;
      loc.preg = reg;
      active.push_back({interval, reg});
      continue;
    }
    // No free register: spill the active interval that ends last (or this one), provided the
    // candidate's register is usable by this interval (r15 cannot host call-crossing ranges).
    size_t victim = active.size();
    uint32_t victim_hi = interval.hi;
    for (size_t i = 0; i < active.size(); ++i) {
      if (active[i].preg == kTagReg && interval.crosses_call) {
        continue;  // This interval could not take r15 over.
      }
      if (active[i].interval.hi > victim_hi) {
        victim_hi = active[i].interval.hi;
        victim = i;
      }
    }
    if (victim == active.size()) {
      assign_slot(interval.vreg);
      continue;
    }
    // Steal the victim's register; the victim moves to a spill slot.
    const uint8_t stolen = active[victim].preg;
    assign_slot(active[victim].interval.vreg);
    result.locations[active[victim].interval.vreg].preg = kNoPhysReg;
    active.erase(active.begin() + static_cast<ptrdiff_t>(victim));
    VRegLocation& loc = result.locations[interval.vreg];
    loc.allocated = true;
    loc.preg = stolen;
    active.push_back({interval, stolen});
  }
  return result;
}

}  // namespace dfp
