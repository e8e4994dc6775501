// Command qmdctl is the client CLI for a qmdd daemon (standalone or
// coordinator — the public job API is identical).
//
// Usage:
//
//	qmdctl [-addr http://127.0.0.1:8432] <command> [args]
//
// Commands:
//
//	submit <spec.json | ->   submit jobs; prints one job ID per line.
//	                         The file may hold a single JobSpec object,
//	                         a JSON array of specs, or a batch envelope
//	                         {"jobs": [...]} — arrays submit as a job
//	                         array, in order.
//	status <id>              print the job's state as JSON.
//	results <id>             print a completed job's final observable
//	                         record (energies/temperature tail, final
//	                         energy, census and rates for reactive jobs)
//	                         as JSON.
//	list                     one line per known job: id, status,
//	                         progress, worker, name.
//	cancel <id>              cancel a queued or running job.
//	watch <id>               stream the job's SSE events until it
//	                         finishes.
//	wait <id>...             block until every listed job is terminal;
//	                         exit 1 if any failed or was cancelled.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ldcdft/internal/serve"
)

// commands maps each subcommand to its implementation.
var commands = map[string]func(ctx context.Context, c *serve.Client, args []string) error{
	"submit":  submit,
	"status":  status,
	"results": results,
	"list":    list,
	"cancel":  cancel,
	"watch":   watch,
	"wait":    wait,
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8432", "qmdd base URL")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: qmdctl [-addr URL] {submit|status|results|list|cancel|watch|wait} [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	err := fmt.Errorf("unknown command %q", args[0])
	if cmd, ok := commands[args[0]]; ok {
		err = cmd(context.Background(), serve.NewClient(*addr), args[1:])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qmdctl: %v\n", err)
		os.Exit(1)
	}
}

// splitSpecs accepts a single spec object, an array of specs, or a
// {"jobs": [...]} envelope, and returns the specs as raw JSON values.
func splitSpecs(raw []byte) ([]json.RawMessage, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty job spec input")
	}
	if raw[0] == '[' {
		var arr []json.RawMessage
		if err := json.Unmarshal(raw, &arr); err != nil {
			return nil, fmt.Errorf("invalid job array: %w", err)
		}
		return arr, nil
	}
	var envelope struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		return nil, fmt.Errorf("invalid job spec: %w", err)
	}
	if envelope.Jobs != nil {
		return envelope.Jobs, nil
	}
	return []json.RawMessage{raw}, nil
}

// printJSON writes v indented, for people: the daemon's answers and
// its store are compact JSON, for programs.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// oneID checks that args is a single job ID.
func oneID(cmd string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: qmdctl %s <id>", cmd)
	}
	return nil
}

func submit(ctx context.Context, c *serve.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: qmdctl submit <spec.json | ->")
	}
	var raw []byte
	var err error
	if args[0] == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	specs, err := splitSpecs(raw)
	if err != nil {
		return err
	}
	for i, raw := range specs {
		spec, err := serve.DecodeSpec(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("job %d/%d: invalid job spec: %w", i+1, len(specs), err)
		}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("job %d/%d: %w", i+1, len(specs), err)
		}
		fmt.Println(st.ID)
	}
	return nil
}

func status(ctx context.Context, c *serve.Client, args []string) error {
	if err := oneID("status", args); err != nil {
		return err
	}
	st, err := c.Job(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

// results prints a completed job's final observable record — the body
// of GET /v1/jobs/{id}/results — so callers can pipe it into jq or the
// experiment harness.
func results(ctx context.Context, c *serve.Client, args []string) error {
	if err := oneID("results", args); err != nil {
		return err
	}
	res, err := c.Results(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(res)
}

func list(ctx context.Context, c *serve.Client, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: qmdctl list")
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	tw := bufio.NewWriter(os.Stdout)
	defer tw.Flush()
	fmt.Fprintf(tw, "%-12s %-10s %-9s %-16s %s\n", "ID", "STATUS", "STEPS", "WORKER", "NAME")
	for _, j := range jobs {
		fmt.Fprintf(tw, "%-12s %-10s %4d/%-4d %-16s %s\n",
			j.ID, j.Status, j.StepsDone, j.Steps, j.Worker, j.Name)
	}
	return nil
}

func cancel(ctx context.Context, c *serve.Client, args []string) error {
	if err := oneID("cancel", args); err != nil {
		return err
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", st.ID, st.Status)
	return nil
}

// watch prints the job's server-sent events, one JSON line per event,
// until the terminal "done" event.
func watch(ctx context.Context, c *serve.Client, args []string) error {
	if err := oneID("watch", args); err != nil {
		return err
	}
	return c.Events(ctx, args[0], func(ev serve.Event) {
		data, _ := json.Marshal(ev)
		fmt.Println(string(data))
	})
}

// wait blocks until every listed job is terminal, reporting each in
// argument order. Exit status 1 (via the returned error) if any failed
// or was cancelled.
func wait(ctx context.Context, c *serve.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: qmdctl wait <id>...")
	}
	var bad []string
	for _, id := range args {
		st, err := c.Wait(ctx, id)
		if err != nil {
			return err
		}
		if st.Status == serve.StatusCompleted {
			fmt.Printf("%s completed (%d steps)\n", id, st.StepsDone)
			continue
		}
		fmt.Printf("%s %s: %s\n", id, st.Status, st.Error)
		bad = append(bad, id)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d job(s) did not complete: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}
