// Command qmdexp regenerates the tables and figures of the paper's
// evaluation (internal/expmatrix): each is a parameter grid over a
// scenario — computed in process, or executed as a qmdd job array —
// checked by observable validators and rendered as a pass/fail matrix.
//
// Usage:
//
//	qmdexp [-addr URL] [-data dir] run <experiment | spec.json>...
//	qmdexp [-data dir] render <experiment | spec.json>...
//	qmdexp list
//
// With -addr, jobs go to a running qmdd daemon (standalone or
// coordinator). Without it, qmdexp hosts a job manager over -data and
// serves its API on a loopback port — the zero-setup mode. Either way
// the harness talks to a daemon over HTTP, and completed cells land in
// <data>/experiments/<name>/ and are skipped when the experiment is
// rerun, so a killed campaign resumes where it left off.
//
// `run` exits 1 when any validator of any named experiment fails (the CI
// gate behaviour); `render` re-evaluates the stored cells, running nothing.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ldcdft/internal/expmatrix"
	"ldcdft/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "qmdd base URL; empty runs jobs in-process")
	data := flag.String("data", "qmdexp-data", "experiment store root (and job store in in-process mode)")
	workers := flag.Int("workers", 2, "trajectory workers (in-process mode)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: qmdexp [-addr URL] [-data dir] {run|render|list} [experiment | spec.json]...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("qmdexp: ")
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	pass, err := true, error(nil)
	switch cmd, rest := args[0], args[1:]; cmd {
	case "run", "render":
		pass, err = run(*addr, *data, *workers, *quiet, rest, cmd == "render")
	case "list":
		err = list(rest)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
	if !pass {
		// The CI-gate contract: a failing matrix fails the command.
		os.Exit(1)
	}
}

func list(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: qmdexp list")
	}
	for _, s := range expmatrix.Builtins() {
		cells := len(expmatrix.ExpandGrid(s.Axes))
		fmt.Printf("%-24s %2d cells  %s\n", s.Name, cells, s.Title)
	}
	return nil
}

// loadSpec resolves the argument to an experiment spec: a builtin name
// or a path to a spec JSON file.
func loadSpec(arg string) (*expmatrix.Spec, error) {
	if s, ok := expmatrix.Builtin(arg); ok {
		return &s, nil
	}
	raw, err := os.ReadFile(arg)
	if err != nil {
		if !strings.ContainsAny(arg, "./") {
			return nil, fmt.Errorf("unknown experiment %q (and no such spec file); `qmdexp list` shows builtins", arg)
		}
		return nil, err
	}
	var s expmatrix.Spec
	if err := serve.DecodeStrict(bytes.NewReader(raw), &s); err != nil {
		return nil, fmt.Errorf("invalid experiment spec %s: %w", arg, err)
	}
	return &s, nil
}

// run executes (renderOnly: re-evaluates) the named experiments in order
// and reports whether every matrix passed.
func run(addr, data string, workers int, quiet bool, args []string, renderOnly bool) (bool, error) {
	if len(args) == 0 {
		return false, fmt.Errorf("usage: qmdexp {run|render} <experiment | spec.json>...")
	}
	logf := log.Printf
	if quiet {
		logf = func(string, ...any) {}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var client *serve.Client
	if !renderOnly {
		c, shutdown, err := openClient(addr, data, workers, logf)
		if err != nil {
			return false, err
		}
		defer shutdown()
		client = c
	}
	pass := true
	for _, arg := range args {
		spec, err := loadSpec(arg)
		if err != nil {
			return false, err
		}
		store, err := expmatrix.OpenStore(data, spec.Name)
		if err != nil {
			return false, err
		}
		runner := &expmatrix.Runner{Client: client, Store: store, Logf: logf}
		var rep *expmatrix.Report
		if renderOnly {
			rep, err = runner.Render(spec)
		} else {
			rep, err = runner.Run(ctx, spec)
		}
		if err != nil {
			return false, err
		}
		fmt.Print(expmatrix.RenderMarkdown(rep))
		fmt.Printf("\nreport: %s/report.{md,json}\n\n", store.Dir())
		pass = pass && rep.Pass
	}
	return pass, nil
}

// openClient returns a client of the daemon at addr or, when addr is
// empty, of an in-process manager over the data dir served on a
// loopback port.
func openClient(addr, data string, workers int, logf func(string, ...any)) (*serve.Client, func(), error) {
	if addr != "" {
		return serve.NewClient(addr), func() {}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	mgr, err := serve.NewManager(serve.Config{
		DataDir:  data,
		Workers:  workers,
		QueueCap: 64,
		Logf:     logf,
	})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: mgr.Handler()}
	go srv.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		// The manager first: its drain ends the event streams the HTTP
		// shutdown would otherwise wait on.
		mgr.Shutdown(ctx)
		srv.Shutdown(ctx)
	}
	return serve.NewClient("http://" + ln.Addr().String()), shutdown, nil
}
