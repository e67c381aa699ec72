package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
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
		res, err := s.Run(spec) // a table hit: the batch's own result
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != res {
			t.Errorf("result %d is not %s's: RunAll must answer in request order", i, goldenKey(spec))
		}
	}
}

// TestSiblingTableBounded: a sibling source is an answer in the result
// table like any other, under its byte bound. A flood of large answers
// pushes out a source nobody used since, whose sibling then simulates,
// while a source used during the flood survives and still shares.
func TestSiblingTableBounded(t *testing.T) {
	s := NewSuite(1)
	run := func(spec Spec) {
		t.Helper()
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
		checkTable(t, s)
	}
	stats := func(step string, runs, shared int64) {
		t.Helper()
		if st := s.SweepStats(); st.Runs != runs || st.Shared != shared {
			t.Fatalf("%s: %d simulated, %d shared; want %d, %d", step, st.Runs, st.Shared, runs, shared)
		}
	}
	trunk := func(budget int64, regs int) Spec {
		return Spec{
			Bench: "compress", Width: 4, Queue: 32, Regs: regs,
			Model: rename.Precise, Cache: cache.LockupFree, Budget: budget,
		}
	}
	run(trunk(1, 256))
	run(trunk(2, 256))
	const flood = 400
	for b := int64(1); b <= flood; b++ {
		run(floodSpec(b))
		if b == flood/2 {
			run(trunk(2, 192)) // uses budget 2's source
		}
	}
	stats("flood", 2+flood, 1)
	if s.SweepStats().Evicted == 0 {
		t.Fatal("the flood evicted nothing: the test would pass vacuously")
	}
	run(trunk(1, 160))
	stats("evicted group", 3+flood, 1)
	run(trunk(2, 160))
	stats("surviving group", 3+flood, 2)
}

// TestTracedRequestsShare: tracing a request (what regsimd does to every
// request) neither blocks sibling sharing nor loses observability. A traced
// trunk simulates with its core.run cycle accounting and fills the sibling
// table; the table then answers an untraced sibling, and a traced sibling
// with a "sibling" span in place of workload.build and core.run. Every
// answer's Result JSON equals a storeless cold run's.
func TestTracedRequestsShare(t *testing.T) {
	const budget = 2_000
	trunk := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 256, Model: rename.Precise, Cache: cache.LockupFree}
	untraced, traced := trunk, trunk
	untraced.Regs, untraced.Model = 192, rename.Imprecise
	traced.Regs = 160
	s := NewSuite(budget)
	run := func(spec Spec) (*core.Result, obs.SpanData) {
		t.Helper()
		root, ctx := obs.StartTrace(context.Background(), "request")
		res, err := s.RunContext(ctx, spec)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return res, root.Snapshot()
	}
	stats := func(step string, runs, shared int64) {
		t.Helper()
		if st := s.SweepStats(); st.Runs != runs || st.Shared != shared {
			t.Fatalf("%s: %d simulated, %d shared; want %d, %d", step, st.Runs, st.Shared, runs, shared)
		}
	}

	trunkRes, tree := run(trunk)
	stats("traced trunk", 1, 0)
	coreRun := tree.Find("core.run")
	if coreRun == nil || coreRun.Attr("cycleAccounting") == nil {
		t.Fatalf("traced trunk lost its core.run cycle accounting: %+v", coreRun)
	}
	if tree.Find("sibling") != nil {
		t.Error("traced trunk has a sibling span although it simulated")
	}

	untracedRes, err := s.Run(untraced)
	if err != nil {
		t.Fatal(err)
	}
	stats("untraced sibling of a traced trunk", 1, 1)

	tracedRes, tree := run(traced)
	stats("traced sibling", 1, 2)
	sib := tree.Find("sibling")
	if sib == nil {
		t.Fatal("traced sibling answer has no sibling span")
	}
	if got := sib.Attr("model"); got != "precise" {
		t.Errorf("sibling span model = %v, want the trunk's precise", got)
	}
	if sib.Attr("watermark") == nil {
		t.Error("sibling span has no watermark")
	}
	for _, name := range []string{"core.run", "workload.build"} {
		if tree.Find(name) != nil {
			t.Errorf("traced sibling answer has a %s span", name)
		}
	}

	for _, c := range []struct {
		spec Spec
		got  *core.Result
	}{{trunk, trunkRes}, {untraced, untracedRes}, {traced, tracedRes}} {
		want, err := NewSuite(budget).Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: answer differs from a storeless cold run\n  got  %s\n  want %s", goldenKey(c.spec), g, w)
		}
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
