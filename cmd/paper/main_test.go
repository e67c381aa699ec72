package main_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"regsim/internal/cmdtest"
	"regsim/internal/exper"
)

// TestExitCodes pins the process contract: malformed flags and arguments
// (including an unknown experiment name, caught before any sweeping starts)
// are usage errors (exit 2); success is 0.
func TestExitCodes(t *testing.T) {
	bin := cmdtest.Build(t, "paper")
	// A regular file where -cache-dir wants a directory.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no experiment", nil, 2},
		{"extra arguments", []string{"table1", "fig3"}, 2},
		{"unknown experiment", []string{"fig99"}, 2},
		{"unknown flag", []string{"-no-such-flag", "table1"}, 2},
		{"bad jobs", []string{"-jobs", "0", "table1"}, 2},
		{"bad budget", []string{"-n", "0", "table1"}, 2},
		{"bad cache dir", []string{"-cache-dir", notADir, "table1"}, 2},
		{"bad checkpoint dir", []string{"-checkpoint-dir", notADir, "-no-cache", "table1"}, 2},
		{"sample rate one", []string{"-sample", "1", "-no-cache", "table1"}, 2},
		{"sample rate negative", []string{"-sample", "-0.2", "-no-cache", "table1"}, 2},
		{"sample rate over one", []string{"-sample", "1.5", "-no-cache", "table1"}, 2},
		{"sample rate NaN", []string{"-sample", "NaN", "-no-cache", "table1"}, 2},
		{"success", []string{"-n", "500", "-no-cache", "table1"}, 0},
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

// TestCheckpointedFig6ByteIdentical is the CLI-level byte-identity contract:
// fig6 rendered plain, rendered cold under a fresh -checkpoint-dir, and
// rendered warm over the populated store must produce identical bytes on
// stdout — fast-forwarding may only change how long the sweep takes. The
// plain sweep shares finished siblings too; TestFig7MatchesUnsharedDigest
// is the reference that cannot share.
func TestCheckpointedFig6ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig6 sweep three times")
	}
	bin := cmdtest.Build(t, "paper")
	dir := filepath.Join(t.TempDir(), "ckpts")
	run := func(args ...string) string {
		t.Helper()
		code, out := cmdtest.Run(t, bin, args...)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out)
		}
		// Drop the timing footer (and any stderr notes): wall-clock varies.
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "[") || strings.HasPrefix(line, "paper: ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	plain := run("-n", "4000", "-no-cache", "fig6")
	cold := run("-n", "4000", "-no-cache", "-checkpoint-dir", dir, "fig6")
	warm := run("-n", "4000", "-no-cache", "-checkpoint-dir", dir, "fig6")
	if cold != plain {
		t.Errorf("checkpointed cold sweep drifted from the plain sweep\nplain:\n%s\ncold:\n%s", plain, cold)
	}
	if warm != plain {
		t.Errorf("checkpointed warm sweep drifted from the plain sweep\nplain:\n%s\nwarm:\n%s", plain, warm)
	}
}

// TestFig7MatchesUnsharedDigest pins a reference that cannot share: the
// fig7 sweep, where most runs are answered by a finished sibling, must print
// exactly what the last build without in-suite sibling sharing printed
// (testdata/fig7-n5000-jobs4.sha256 was generated with the binary of commit
// 403aa51 as `paper -n 5000 -no-cache -jobs 4 fig7 | sha256sum`). -jobs 1
// must print the same bytes as -jobs 4: which runs are shared depends on
// scheduling, the output must not.
func TestFig7MatchesUnsharedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig7 sweep twice")
	}
	blob, err := os.ReadFile("testdata/fig7-n5000-jobs4.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(blob))
	bin := cmdtest.Build(t, "paper")
	stdout := func(jobs string) []byte {
		t.Helper()
		out, err := exec.Command(bin, "-n", "5000", "-no-cache", "-jobs", jobs, "fig7").Output()
		if err != nil {
			t.Fatalf("paper -jobs %s: %v", jobs, err)
		}
		return out
	}
	four := stdout("4")
	if sum := sha256.Sum256(four); hex.EncodeToString(sum[:]) != want {
		t.Errorf("fig7 stdout hashes to %x, want the unshared build's %s:\n%s", sum, want, four)
	}
	if one := stdout("1"); !bytes.Equal(one, four) {
		t.Errorf("-jobs 1 and -jobs 4 printed different fig7 output\njobs 1:\n%s\njobs 4:\n%s", one, four)
	}
}

// TestSampledSmoke: a sampled spec has one answer. The CLI's sampled fig6
// JSON must be, byte for byte, what an in-process suite at the same budget
// and rate renders, indented as the CLI indents it (the values are
// estimates; accuracy is bounded by internal/exper's TestSampledFig6Error,
// not here).
func TestSampledSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sampled fig6 sweep twice")
	}
	bin := cmdtest.Build(t, "paper")
	got, err := exec.Command(bin, "-n", "4000", "-sample", "0.25", "-no-cache", "-json", "fig6").Output()
	if err != nil {
		t.Fatalf("paper -sample 0.25 -json fig6: %v", err)
	}
	s := exper.NewSuite(4000)
	s.SampleRate = 0.25
	f, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("the CLI's sampled fig6 differs from the in-process suite's\nCLI:\n%s\nsuite:\n%s", got, want.Bytes())
	}
}
