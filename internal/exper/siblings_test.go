package exper

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/obs"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
)

// siblingBatch is a sibling-rich batch: every register-file size under both
// exception models for each machine, listed smallest file first so that only
// RunAll's trunk-first schedule puts the serving runs ahead of their
// siblings.
func siblingBatch() []Spec {
	var specs []Spec
	for _, bench := range []string{"compress", "tomcatv"} {
		for _, width := range Widths {
			for _, kind := range []cache.Kind{cache.Perfect, cache.Lockup, cache.LockupFree} {
				for _, regs := range RegSizes {
					for _, model := range []rename.Model{rename.Imprecise, rename.Precise} {
						specs = append(specs, Spec{
							Bench: bench, Width: width, Queue: CostEffectiveQueue(width),
							Regs: regs, Model: model, Cache: kind,
						})
					}
				}
			}
		}
	}
	return specs
}

// TestSiblingSharingByteIdentical is the register-axis leg of the
// byte-identity contract: every Result of a sibling-rich batch run through
// one RunAll, where finished pressure-free runs answer their siblings, must
// fingerprint exactly like the same spec run alone on a fresh suite, which
// has no sibling to share.
func TestSiblingSharingByteIdentical(t *testing.T) {
	const budget = 8_000
	specs := siblingBatch()
	s := NewSuite(budget)
	s.Jobs = 4
	got, err := s.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	st := s.SweepStats()
	if st.Shared == 0 {
		t.Fatalf("no spec of the sibling-rich batch was shared (stats %+v): the test would pass vacuously", st)
	}
	if st.Runs+st.Shared != int64(len(specs)) {
		t.Errorf("%d simulated + %d shared for %d distinct specs", st.Runs, st.Shared, len(specs))
	}
	for i, spec := range specs {
		alone := NewSuite(budget)
		want, err := alone.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := goldenFingerprint(t, got[i]), goldenFingerprint(t, want); g != w {
			t.Errorf("%s: batch result differs from a solo run\n  batch %s\n  solo  %s", goldenKey(spec), g, w)
		}
	}
}

// TestRunAllTrunkFirst: a batch executes largest register file first and
// precise before imprecise, whatever order it was requested in, and the
// results still come back in request order.
func TestRunAllTrunkFirst(t *testing.T) {
	var specs []Spec
	for _, regs := range []int{48, 96, 256} {
		for _, model := range []rename.Model{rename.Imprecise, rename.Precise} {
			specs = append(specs, Spec{
				Bench: "compress", Width: 4, Queue: 32, Regs: regs, Model: model, Cache: cache.LockupFree,
			})
		}
	}
	s := NewSuite(2_000)
	s.Jobs = 1
	var order []string
	s.Progress = func(line string) {
		if f := strings.Fields(line); len(f) > 4 {
			order = append(order, f[4]+" "+strings.Split(f[5], "/")[0])
		}
	}
	got, err := s.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"regs=256 precise", "regs=256 imprecise",
		"regs=96 precise", "regs=96 imprecise",
		"regs=48 precise", "regs=48 imprecise",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %q, want %q", order, want)
	}
	for i, spec := range specs {
		res, err := s.Run(spec) // a memo hit: the batch's own result
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != res {
			t.Errorf("result %d is not %s's: RunAll must answer in request order", i, goldenKey(spec))
		}
	}
}

// TestSiblingTableBounded floods a suite with more distinct pressure-free
// sibling groups than the table holds (tiny distinct budgets): the table
// never grows past its cap, a spec whose group was evicted simply
// simulates, and one whose group survived is still shared.
func TestSiblingTableBounded(t *testing.T) {
	s := NewSuite(1)
	spec := func(budget int64, regs int) Spec {
		return Spec{
			Bench: "compress", Width: 4, Queue: 32, Regs: regs,
			Model: rename.Precise, Cache: cache.LockupFree, Budget: budget,
		}
	}
	const groups = siblingCap + 8
	for b := int64(1); b <= groups; b++ {
		if _, err := s.Run(spec(b, 256)); err != nil {
			t.Fatal(err)
		}
		if n := s.siblings.lru.Len(); n > siblingCap || n != len(s.siblings.groups) {
			t.Fatalf("after %d groups the table holds %d entries (%d indexed), cap %d",
				b, n, len(s.siblings.groups), siblingCap)
		}
	}
	if st := s.SweepStats(); st.Runs != groups || st.Shared != 0 {
		t.Fatalf("flood: %d simulated, %d shared; want %d simulated, none shared", st.Runs, st.Shared, groups)
	}
	// Budget 1's group was the least recently used, so it is gone.
	if _, err := s.Run(spec(1, 160)); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Runs != groups+1 || st.Shared != 0 {
		t.Errorf("evicted group: %d simulated, %d shared; want it simulated", st.Runs, st.Shared)
	}
	if _, err := s.Run(spec(groups, 160)); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Shared != 1 {
		t.Errorf("surviving group: %d shared, want its sibling shared", st.Shared)
	}
}

// TestTracedRunsNeverShared: a traced request carries the simulator's own
// cycle accounting on its core.run span, so it simulates even when a
// finished sibling could answer it, and its result is still the sibling's.
func TestTracedRunsNeverShared(t *testing.T) {
	trunk := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 256, Model: rename.Precise, Cache: cache.LockupFree}
	sibling := trunk
	sibling.Regs = 160
	s := NewSuite(2_000)
	want, err := s.Run(trunk)
	if err != nil {
		t.Fatal(err)
	}
	root, ctx := obs.StartTrace(context.Background(), "request")
	got, err := s.RunContext(ctx, sibling)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Runs != 2 || st.Shared != 0 {
		t.Errorf("traced sibling: %d simulated, %d shared; want it simulated", st.Runs, st.Shared)
	}
	if tree := root.Snapshot(); tree.Find("core.run") == nil {
		t.Error("traced sibling has no core.run span")
	}
	if g, w := goldenFingerprint(t, got), goldenFingerprint(t, want); g != w {
		t.Errorf("traced sibling differs from its pressure-free trunk\n  got  %s\n  want %s", g, w)
	}
	// An untraced request for another sibling is answered from the table.
	sibling.Model = rename.Imprecise
	if _, err := s.Run(sibling); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Shared != 1 {
		t.Errorf("untraced sibling: %d shared, want 1", st.Shared)
	}
}

// TestSharedAnswerLikeACacheHit: a sibling's answer fills the persistent
// result cache like a simulated result, and reaches Progress as a "hit"
// line, never as a "ran" line (regbench counts simulations from those).
func TestSharedAnswerLikeACacheHit(t *testing.T) {
	store, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trunk := Spec{Bench: "tomcatv", Width: 8, Queue: 64, Regs: 256, Model: rename.Precise, Cache: cache.LockupFree}
	sibling := trunk
	sibling.Regs, sibling.Model = 160, rename.Imprecise
	s := NewSuite(2_000)
	s.Cache = store
	var lines []string
	s.Progress = func(line string) { lines = append(lines, line) }
	if _, err := s.Run(trunk); err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Runs != 1 || st.Shared != 1 {
		t.Fatalf("%d simulated, %d shared; want the sibling shared", st.Runs, st.Shared)
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "ran ") || !strings.HasPrefix(lines[1], "hit ") {
		t.Errorf("progress lines %q, want one ran line then one hit line", lines)
	}
	fresh := NewSuite(2_000)
	fresh.Cache = store
	got, err := fresh.Run(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.SweepStats(); st.CacheHits != 1 || st.Runs != 0 {
		t.Errorf("fresh suite: %d cache hits, %d simulated; want the shared answer read back", st.CacheHits, st.Runs)
	}
	if g, w := goldenFingerprint(t, got), goldenFingerprint(t, want); g != w {
		t.Errorf("cached shared answer differs\n  got  %s\n  want %s", g, w)
	}
}
