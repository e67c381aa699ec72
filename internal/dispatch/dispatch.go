// Package dispatch provides the issue-rule bookkeeping for the unified
// dispatch queue: the per-cycle, per-class issue limits of the paper's 4-way
// and 8-way machines, and the insertion/commit bandwidth rules.
//
// Paper §2.1: for the four-way issue processor an instruction word can
// contain at most four operations, of which at most four integer operations,
// one floating-point division, two floating-point operations, two memory
// operations, and one control-flow operation; the eight-way processor
// doubles every class. The number of instructions inserted into the dispatch
// queue per cycle is 1.5× the issue width, and at most twice the issue width
// can commit per cycle.
package dispatch

import (
	"fmt"

	"regsim/internal/isa"
)

// Limits describes a machine width's per-cycle bandwidths.
type Limits struct {
	Width  int // maximum instructions issued per cycle
	Insert int // maximum instructions inserted into the dispatch queue per cycle
	Commit int // maximum instructions committed per cycle

	// perClass[c] is the per-cycle issue limit for class c.
	perClass [isa.NumClasses]int
}

// LimitsFor returns the paper's issue rules for a 4- or 8-way machine.
func LimitsFor(width int) (Limits, error) {
	if width != 4 && width != 8 {
		return Limits{}, fmt.Errorf("dispatch: issue width %d not supported (paper models 4 and 8)", width)
	}
	scale := width / 4
	l := Limits{
		Width:  width,
		Insert: width + width/2, // 1.5× issue width
		Commit: 2 * width,
	}
	l.perClass[isa.ClassIntALU] = 4 * scale
	l.perClass[isa.ClassIntMul] = 4 * scale // multiplies share the integer slots
	l.perClass[isa.ClassFP] = 2 * scale
	l.perClass[isa.ClassFPDiv] = 1 * scale
	l.perClass[isa.ClassLoad] = 2 * scale  // memory slots, shared with stores
	l.perClass[isa.ClassStore] = 2 * scale // memory slots, shared with loads
	l.perClass[isa.ClassCondBr] = 1 * scale
	l.perClass[isa.ClassCtrl] = 1 * scale // control-flow slot, shared with branches
	l.perClass[isa.ClassHalt] = 1 * scale
	return l, nil
}

// ClassLimit returns the per-cycle issue limit for a class.
func (l Limits) ClassLimit(c isa.Class) int { return l.perClass[c] }

// FPDivUnits returns the number of (unpipelined) floating-point divide units.
func (l Limits) FPDivUnits() int { return l.perClass[isa.ClassFPDiv] }

// Slots tracks the issue slots consumed within one cycle. Integer multiplies
// draw from the integer slots; loads and stores share the memory slots;
// conditional branches and unconditional control flow share the control
// slots; floating-point divides draw from both the FP slots and the divide
// limit.
type Slots struct {
	limits Limits
	total  int
	intOps int
	fpOps  int
	fpDiv  int
	mem    int
	ctrl   int
}

// NewSlots returns an empty slot tracker for one cycle.
func NewSlots(l Limits) Slots { return Slots{limits: l} }

// Reset empties the tracker for a new cycle, keeping its limits, so a
// caller can keep one tracker instead of copying the limits every cycle.
func (s *Slots) Reset() {
	s.total, s.intOps, s.fpOps, s.fpDiv, s.mem, s.ctrl = 0, 0, 0, 0, 0, 0
}

// TryIssue consumes the slots needed by an instruction of class c, reporting
// whether capacity remained. A rejected call consumes nothing.
func (s *Slots) TryIssue(c isa.Class) bool {
	if s.total >= s.limits.Width {
		return false
	}
	switch c {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassHalt:
		if s.intOps >= s.limits.perClass[isa.ClassIntALU] {
			return false
		}
		s.intOps++
	case isa.ClassFP:
		if s.fpOps >= s.limits.perClass[isa.ClassFP] {
			return false
		}
		s.fpOps++
	case isa.ClassFPDiv:
		if s.fpOps >= s.limits.perClass[isa.ClassFP] || s.fpDiv >= s.limits.perClass[isa.ClassFPDiv] {
			return false
		}
		s.fpOps++
		s.fpDiv++
	case isa.ClassLoad, isa.ClassStore:
		if s.mem >= s.limits.perClass[isa.ClassLoad] {
			return false
		}
		s.mem++
	case isa.ClassCondBr, isa.ClassCtrl:
		if s.ctrl >= s.limits.perClass[isa.ClassCondBr] {
			return false
		}
		s.ctrl++
	default:
		return false
	}
	s.total++
	return true
}

// Issued returns the number of instructions issued so far this cycle.
func (s *Slots) Issued() int { return s.total }

// Full reports whether the cycle's total issue bandwidth is exhausted
// (callers can stop scanning the queue early).
func (s *Slots) Full() bool { return s.total >= s.limits.Width }
