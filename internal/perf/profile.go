package perf

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"
)

// StartCPUProfile begins a pprof CPU profile written to path and returns
// the function that stops it and closes the file. An empty path is a
// no-op. Used by the -cpuprofile flag of the commands.
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// Flags are the -perf, -perf-json and -cpuprofile flags the commands share.
type Flags struct {
	Report               bool   // -perf
	JSONPath, CPUProfile string // -perf-json, -cpuprofile
}

// RegisterFlags registers the three flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Report, "perf", false, "print the per-phase performance report after the run")
	fs.StringVar(&f.JSONPath, "perf-json", "", "write the per-phase report as JSON to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	return f
}

// Start begins the CPU profile, if asked for, and resets the process-global
// counters so the reports cover the run and not what came before it.
func (f *Flags) Start() (stop func(), err error) {
	Global.Reset()
	Default.Reset()
	return StartCPUProfile(f.CPUProfile)
}

// Write prints the per-phase table to w and writes the JSON file, each if
// asked for.
func (f *Flags) Write(w io.Writer) error {
	if f.Report {
		fmt.Fprintf(w, "\nper-phase performance report (wall %s):\n", Default.Wall().Round(time.Millisecond))
		if err := Default.WriteText(w); err != nil {
			return fmt.Errorf("perf: %w", err)
		}
	}
	if f.JSONPath != "" {
		out, err := os.Create(f.JSONPath)
		if err == nil {
			err = errors.Join(Default.WriteJSON(out), out.Close())
		}
		if err != nil {
			return fmt.Errorf("perf-json: %w", err)
		}
		fmt.Fprintf(w, "per-phase JSON report written to %s\n", f.JSONPath)
	}
	return nil
}
