package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsim/internal/cmdtest"
)

// TestExitCodes pins the process contract: malformed flags and arguments are
// usage errors (exit 2), failures while doing well-formed work are runtime
// errors (exit 1), success is 0.
func TestExitCodes(t *testing.T) {
	bin := cmdtest.Build(t, "regsim")
	// A regular file where -checkpoint-dir wants a directory.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no benchmark", nil, 2},
		{"extra arguments", []string{"compress", "doduc"}, 2},
		{"unknown benchmark", []string{"not-a-benchmark"}, 2},
		{"unknown flag", []string{"-no-such-flag", "compress"}, 2},
		{"bad width", []string{"-width", "5", "compress"}, 2},
		{"bad model", []string{"-model", "fuzzy", "compress"}, 2},
		{"bad cache", []string{"-cache", "write-through", "compress"}, 2},
		{"bad budget", []string{"-n", "0", "compress"}, 2},
		{"negative regs", []string{"-regs", "-1", "compress"}, 2},
		{"regs below the floor", []string{"-regs", "31", "compress"}, 2},
		{"bad random seed", []string{"random:notanumber"}, 2},
		{"uncreatable memprofile", []string{"-memprofile", "/nonexistent-dir/heap.pprof", "-n", "2000", "compress"}, 2},
		{"sample rate one", []string{"-sample", "1", "-n", "2000", "compress"}, 2},
		{"sample rate negative", []string{"-sample", "-0.2", "-n", "2000", "compress"}, 2},
		{"sample rate over one", []string{"-sample", "1.5", "-n", "2000", "compress"}, 2},
		{"sample rate NaN", []string{"-sample", "NaN", "-n", "2000", "compress"}, 2},
		{"checkpoint dir is a file", []string{"-checkpoint-dir", notADir, "-n", "2000", "compress"}, 2},
		{"success with sample", []string{"-sample", "0.25", "-n", "2000", "compress"}, 0},
		{"missing asm file", []string{"asm:/nonexistent/prog.s"}, 1},
		{"success", []string{"-n", "2000", "compress"}, 0},
		{"success with verify", []string{"-n", "2000", "-verify", "compress"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := cmdtest.Run(t, bin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}

// TestMemProfile: -memprofile must leave a non-empty pprof heap profile
// behind on success.
func TestMemProfile(t *testing.T) {
	bin := cmdtest.Build(t, "regsim")
	path := filepath.Join(t.TempDir(), "heap.pprof")
	code, out := cmdtest.Run(t, bin, "-n", "2000", "-memprofile", path, "compress")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("no heap profile written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("heap profile is empty")
	}
}

// TestVerifyFlagOutput: -verify must report both oracle verdicts (the
// differential leg and the checkpoint round-trip leg).
func TestVerifyFlagOutput(t *testing.T) {
	bin := cmdtest.Build(t, "regsim")
	code, out := cmdtest.Run(t, bin, "-n", "2000", "-verify", "random:5")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "verify: OK — committed stream") {
		t.Fatalf("no differential verdict in output:\n%s", out)
	}
	if !strings.Contains(out, "verify: OK — checkpoint resume") {
		t.Fatalf("no checkpoint round-trip verdict in output:\n%s", out)
	}
}

// statsBlock strips the command's stderr notes ("regsim: ..." lines) from
// combined output, leaving just the printed statistics block.
func statsBlock(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "regsim: ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCheckpointFlag: a rerun against the same -checkpoint-dir must
// fast-forward (the store reports hits) and print a byte-identical
// statistics block — checkpointing is a speedup, never a result change.
func TestCheckpointFlag(t *testing.T) {
	bin := cmdtest.Build(t, "regsim")
	dir := filepath.Join(t.TempDir(), "ckpts")
	args := []string{"-n", "4000", "-checkpoint-dir", dir, "compress"}
	code, cold := cmdtest.Run(t, bin, args...)
	if code != 0 {
		t.Fatalf("cold run: exit %d\n%s", code, cold)
	}
	code, warm := cmdtest.Run(t, bin, args...)
	if code != 0 {
		t.Fatalf("warm run: exit %d\n%s", code, warm)
	}
	if got, want := statsBlock(warm), statsBlock(cold); got != want {
		t.Errorf("checkpointed rerun changed the statistics block\ncold:\n%s\nwarm:\n%s", want, got)
	}
	if !strings.Contains(warm, "checkpoint store:") {
		t.Errorf("warm run never reported a checkpoint hit:\n%s", warm)
	}
	// A smaller budget cannot resume from the deeper stored state: the run
	// simulates in full and must not report a hit.
	code, smaller := cmdtest.Run(t, bin, "-n", "2000", "-checkpoint-dir", dir, "compress")
	if code != 0 {
		t.Fatalf("smaller-budget run: exit %d\n%s", code, smaller)
	}
	if strings.Contains(smaller, "snapshot hit") || !strings.Contains(smaller, "lies past the budget") {
		t.Errorf("smaller-budget run misreported the deeper stored state:\n%s", smaller)
	}
}

// TestSampleFlagOutput: a sampled run must say its statistics are estimates
// and still report the full commit budget.
func TestSampleFlagOutput(t *testing.T) {
	bin := cmdtest.Build(t, "regsim")
	code, out := cmdtest.Run(t, bin, "-n", "4000", "-sample", "0.25", "compress")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "extrapolated estimates") {
		t.Errorf("sampled run did not flag its output as an estimate:\n%s", out)
	}
	if !strings.Contains(out, " 4000   (commit IPC") {
		t.Errorf("sampled run does not report the full commit budget:\n%s", out)
	}
}
