package main

import (
	"bytes"
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

func buildLdcmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ldcmd")
	if out, err := exec.Command("go", "build", "-o", bin, "ldcdft/cmd/ldcmd").CombinedOutput(); err != nil {
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
	bin := buildLdcmd(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"resume-missing-file", []string{"-resume", filepath.Join(t.TempDir(), "nope.ck")}, "-resume"},
		{"checkpoint-every-without-checkpoint", []string{"-checkpoint-every", "5"}, "-checkpoint-every"},
		{"cache-bytes-without-cache-dir", []string{"-cache-bytes", "1048576"}, "-cache-bytes"},
		{"negative-cache-bytes", []string{"-cache-dir", t.TempDir(), "-cache-bytes", "-1"}, "-cache-bytes"},
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

// stepLines are the per-step "step N: E = …" lines of an ldcmd run.
func stepLines(out []byte) []string {
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "step ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestSIGINTWritesFinalCheckpoint: an interrupted QMD run exits 130 after
// writing a final checkpoint of the last completed step — the signal
// usually lands inside an SCF solve — and -resume continues from it to
// the same per-step energies and temperatures an uninterrupted run prints.
func TestSIGINTWritesFinalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLdcmd(t)
	// The smallest SiC workload that converges: about half a second a step.
	small := []string{"-cells", "1", "-grid", "12", "-domains", "1", "-buf", "0", "-ecut", "2.5"}
	args := func(more ...string) []string { return append(append([]string(nil), small...), more...) }

	ck := filepath.Join(t.TempDir(), "ck.qmd")
	cmd := exec.Command(bin, args("-steps", "100000", "-checkpoint", ck)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The trajectory is going once the first per-step checkpoint lands.
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
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit %v, want code 130", err)
	}
	restored, err := qio.ReadCheckpoint(ck)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if restored.Step < 1 || len(restored.Energies) != restored.Step {
		t.Fatalf("checkpoint at step %d with %d recorded energies", restored.Step, len(restored.Energies))
	}

	steps := strconv.Itoa(restored.Step + 2)
	dir := t.TempDir()
	resumedXYZ, straightXYZ := filepath.Join(dir, "resumed.xyz"), filepath.Join(dir, "straight.xyz")
	resumed, err := exec.Command(bin, args("-steps", steps, "-resume", ck, "-xyz", resumedXYZ)...).CombinedOutput()
	if err != nil {
		t.Fatalf("resume failed: %v\n%s", err, resumed)
	}
	straight, err := exec.Command(bin, args("-steps", steps, "-xyz", straightXYZ)...).CombinedOutput()
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v\n%s", err, straight)
	}
	got, want := stepLines(resumed), stepLines(straight)
	if len(want) != restored.Step+2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("resumed run printed\n%s\nuninterrupted run printed\n%s", resumed, straight)
	}
	// Both final frames: the same bytes, a count line, a comment line and
	// one line per atom of the 8-atom SiC cell.
	gotXYZ, err := os.ReadFile(resumedXYZ)
	if err != nil {
		t.Fatal(err)
	}
	wantXYZ, err := os.ReadFile(straightXYZ)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotXYZ, wantXYZ) {
		t.Fatalf("resumed run wrote\n%s\nuninterrupted run wrote\n%s", gotXYZ, wantXYZ)
	}
	if n := strings.Count(string(wantXYZ), "\n"); n != 8+2 {
		t.Fatalf("XYZ file has %d lines, want %d:\n%s", n, 8+2, wantXYZ)
	}
}
