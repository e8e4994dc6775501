// Package trajcli is what the trajectory commands (ldcmd, h2od) share
// around a run — the checkpoint/resume and perf flags, their validation,
// the SIGINT/SIGTERM context and exit code; the run is md.Trajectory's.
package trajcli

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"ldcdft/internal/perf"
)

// Flags are the checkpoint/resume flags and the perf flags.
type Flags struct {
	Checkpoint string // -checkpoint
	Every      int    // -checkpoint-every
	Resume     string // -resume
	perf       *perf.Flags
}

// Register registers the flags; every is the default checkpoint cadence.
func Register(every int) *Flags {
	f := &Flags{perf: perf.RegisterFlags(flag.CommandLine)}
	flag.StringVar(&f.Checkpoint, "checkpoint", "", "write restartable checkpoints to this file during the run")
	flag.IntVar(&f.Every, "checkpoint-every", every, "MD steps between checkpoint writes")
	flag.StringVar(&f.Resume, "resume", "", "resume the trajectory from this checkpoint file")
	return f
}

// Start parses the command line, rejects what would otherwise be silently
// ignored (checkpoint tuning without -checkpoint, a missing -resume file),
// starts the profile and the perf counters, and returns a context that
// SIGINT or SIGTERM cancels: the trajectory then stops at the next step (or
// SCF-iteration) boundary, after a final checkpoint if -checkpoint is set.
// finish, deferred, ends the profile and prints the perf reports.
func (f *Flags) Start() (ctx context.Context, finish func()) {
	flag.Parse()
	RequireWith("checkpoint", f.Checkpoint != "", "checkpoint-every")
	if f.Resume != "" {
		if _, err := os.Stat(f.Resume); err != nil {
			log.Fatalf("-resume: cannot read checkpoint: %v", err)
		}
	}
	stopProf, err := f.perf.Start()
	if err != nil {
		log.Fatalf("%v", err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, func() {
		stopSignals()
		stopProf()
		if err := f.perf.Write(os.Stdout); err != nil {
			log.Fatalf("%v", err)
		}
	}
}

// RequireWith exits with a diagnostic if the user set one of the tuning
// flags without the flag they tune.
func RequireWith(main string, set bool, tuning ...string) {
	flag.Visit(func(fl *flag.Flag) {
		if !set && slices.Contains(tuning, fl.Name) {
			log.Fatalf("-%s has no effect without -%s", fl.Name, main)
		}
	})
}

// Exit ends a command whose trajectory returned err: 130 for an interrupted
// run (err names the last completed step, which -resume continues), else 1.
func Exit(err error) {
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("run: %v", err)
	}
	log.Printf("interrupted: %v", err)
	os.Exit(130)
}
