package rename

import "regsim/internal/isa"

// LeakFreeRegisterForTest simulates a register-leak bug by silently dropping
// one register from a file's free list: the register is then neither live,
// free, nor pending — exactly the corruption a missed EndCycle free would
// cause. It returns the leaked register, or PhysZero if the free list is
// empty (nothing leaked).
//
// It exists only so the verification subsystem can prove its detectors work:
// the leak must be caught by the core's per-cycle free-list conservation
// check (Config.CheckInvariants) and by the differential harness's end-of-run
// rename audit. It must never be called outside tests.
func (u *Unit) LeakFreeRegisterForTest(f isa.RegFile) Phys {
	fs := u.fs(f)
	n := len(fs.freeList)
	if n == 0 {
		return PhysZero
	}
	p := fs.freeList[n-1]
	fs.freeList = fs.freeList[:n-1]
	return p
}

// MisrollForTest simulates a broken misprediction rollback: virtual
// register v of file f is left mapped to a register that is not live (the
// next one the free list would hand out), as if OnSquash had restored the
// wrong mapping. It returns that register, or PhysZero if the free list is
// empty (nothing injected). Like LeakFreeRegisterForTest, it exists only to
// prove the rename audit catches the corruption, whatever bookkeeping the
// unit keeps.
func (u *Unit) MisrollForTest(f isa.RegFile, v uint8) Phys {
	fs := u.fs(f)
	n := len(fs.freeList)
	if n == 0 {
		return PhysZero
	}
	p := fs.freeList[n-1]
	fs.mapTable[v] = p
	return p
}
