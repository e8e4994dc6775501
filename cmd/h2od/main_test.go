package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ldcdft/internal/qio"
	"ldcdft/internal/waitfor"
)

func buildH2od(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "h2od")
	if out, err := exec.Command("go", "build", "-o", bin, "ldcdft/cmd/h2od").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidation: conflicting or impossible flag combinations exit
// non-zero with a diagnostic instead of being silently ignored.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildH2od(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"resume-missing-file", []string{"-resume", filepath.Join(t.TempDir(), "nope.ck")}, "-resume"},
		{"checkpoint-every-without-checkpoint", []string{"-checkpoint-every", "100"}, "-checkpoint-every"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("exit 0, want non-zero\n%s", out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestSIGINTWritesFinalCheckpoint: an interrupted production run exits
// 130 after writing a final checkpoint that a second invocation can
// resume from.
func TestSIGINTWritesFinalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildH2od(t)
	ck := filepath.Join(t.TempDir(), "ck.h2o")
	cmd := exec.Command(bin, "-pairs", "6", "-steps", "2000000", "-checkpoint", ck, "-checkpoint-every", "2000")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The trajectory is "going" once the first periodic checkpoint lands
	// on disk — deterministic readiness instead of a fixed sleep.
	if !waitfor.Until(time.Minute, func() bool {
		_, err := os.Stat(ck)
		return err == nil
	}) {
		t.Fatal("no periodic checkpoint appeared")
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit %v, want code 130", err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	restored, err := qio.ReadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step < 1 {
		t.Fatalf("checkpoint at step %d", restored.Step)
	}

	// The checkpoint resumes: a short continuation run must load it and
	// integrate the remaining steps cleanly.
	steps := strconv.Itoa(restored.Step + 8)
	if out, err := exec.Command(bin, "-resume", ck, "-steps", steps).CombinedOutput(); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, out)
	}
}
