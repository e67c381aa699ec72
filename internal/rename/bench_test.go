package rename

import (
	"testing"

	"regsim/internal/isa"
)

// BenchmarkRenameLifecycle measures a full dispatch→complete→commit cycle
// for one instruction under the precise model.
func BenchmarkRenameLifecycle(b *testing.B) {
	u, err := NewUnit(128, Precise, true)
	if err != nil {
		b.Fatal(err)
	}
	dst := isa.Reg{File: isa.IntFile, Idx: 1}
	for i := 0; i < b.N; i++ {
		seq := int64(i)
		src := u.Lookup(dst)
		u.AddReader(isa.IntFile, src)
		newP, oldP := u.Rename(seq, dst)
		u.OnIssue(isa.IntFile, newP)
		u.OnReaderDone(isa.IntFile, src)
		u.OnWriterDone(isa.IntFile, newP, dst.Idx, seq)
		u.SetFrontier(NoFrontier)
		u.OnCommitRetire(isa.IntFile, oldP)
		u.EndCycle()
	}
}
