// Command qmdd is the QMD job-serving daemon. It runs in one of three
// modes:
//
//   - standalone (default): the internal/serve HTTP API (submit,
//     status, cancel, SSE event streams, health, Prometheus metrics)
//     over a durable job store with admission control, every job run
//     under a lease from the daemon's own job manager by one of
//     -workers in-process slots. The /v1/lease API is served too, so
//     worker nodes may attach and share the queue.
//   - coordinator: the same daemon with no in-process slots — only
//     worker nodes lease jobs over the /v1/lease API, heartbeat them,
//     upload checkpoints at step boundaries, and report completion.
//     A worker that crashes or partitions loses its lease after
//     -lease-ttl; the job is requeued and resumed bit-for-bit from its
//     last uploaded checkpoint by the next node, and the old worker's
//     late calls are fenced off by the lease epoch.
//   - worker: a trajectory node — leases jobs from -coordinator, runs
//     them with -slots-way concurrency, and drains cooperatively on
//     SIGTERM (final checkpoint uploaded, lease released).
//
// All modes drain gracefully on SIGTERM/SIGINT.
//
// Jobs share a content-addressed SCF warm-start cache (qmdd_cache_*
// on /metrics): resubmitting an identical structure skips its SCF
// solves entirely, and near-duplicate structures start from the nearest
// cached density. Disable with -cache-bytes 0.
//
// Usage:
//
//	qmdd -addr 127.0.0.1:8432 -data ./qmdd-data -workers 2 -queue-cap 16
//	qmdd -mode coordinator -addr :8432 -data ./qmdd-data -lease-ttl 15s
//	qmdd -mode worker -coordinator http://head:8432 -slots 2 -data ./scratch
//
// Submitting a job:
//
//	curl -fsS -X POST localhost:8432/v1/jobs -d @job.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ldcdft/internal/cache"
	"ldcdft/internal/serve"
)

func main() {
	mode := flag.String("mode", "standalone", "standalone | coordinator | worker")
	addr := flag.String("addr", "127.0.0.1:8432", "listen address (host:port; port 0 picks a free port)")
	data := flag.String("data", "qmdd-data", "durable job store directory (worker mode: local scratch root)")
	workers := flag.Int("workers", 2, "in-process trajectory slots (standalone mode)")
	queueCap := flag.Int("queue-cap", 16, "pending-queue capacity (excess submissions get 429)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for checkpointing running jobs")
	cacheDir := flag.String("cache-dir", "", "SCF warm-start cache directory (default <data>/cache)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "warm-start cache byte budget (0 disables the cache)")
	coordinator := flag.String("coordinator", "http://127.0.0.1:8432", "coordinator base URL (worker mode)")
	name := flag.String("name", "", "worker node name (worker mode; default host:pid)")
	slots := flag.Int("slots", 2, "concurrent leased trajectories (worker mode)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "job lease TTL: a worker node silent this long loses its jobs")
	retainAge := flag.Duration("retain-age", 0, "prune terminal jobs finished longer ago than this (0 keeps forever)")
	retainMax := flag.Int("retain-max-jobs", 0, "keep at most this many terminal jobs, oldest pruned first (0 keeps all)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("qmdd: ")
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *cacheBytes < 0 {
		log.Fatalf("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}
	if *retainAge < 0 || *retainMax < 0 {
		log.Fatalf("-retain-age and -retain-max-jobs must be non-negative")
	}
	var err error
	switch *mode {
	case "standalone", "coordinator":
		err = runServe(*mode == "coordinator", *addr, *data, *workers, *queueCap,
			*drainTimeout, *leaseTTL, *cacheDir, *cacheBytes,
			*retainAge, *retainMax)
	case "worker":
		err = runWorker(*coordinator, *name, *data, *slots, *cacheDir, *cacheBytes)
	default:
		err = fmt.Errorf("unknown -mode %q (want standalone, coordinator, or worker)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// openCache opens the warm-start cache per the -cache-* flags; nil (and
// no error) when disabled.
func openCache(data, cacheDir string, cacheBytes int64) (*cache.Cache, error) {
	if cacheBytes <= 0 {
		log.Printf("warm-start cache disabled")
		return nil, nil
	}
	if cacheDir == "" {
		cacheDir = filepath.Join(data, "cache")
	}
	wsc, err := cache.Open(cache.Options{Dir: cacheDir, MaxBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	st := wsc.Stats()
	log.Printf("warm-start cache at %s (budget %d bytes, %d entries recovered)",
		cacheDir, cacheBytes, st.Entries)
	return wsc, nil
}

// runServe hosts the HTTP API in standalone or coordinator mode.
func runServe(distributed bool, addr, data string, workers, queueCap int,
	drainTimeout, leaseTTL time.Duration, cacheDir string, cacheBytes int64,
	retainAge time.Duration, retainMax int) error {
	wsc, err := openCache(data, cacheDir, cacheBytes)
	if err != nil {
		return err
	}
	mgr, err := serve.NewManager(serve.Config{
		DataDir:     data,
		Workers:     workers,
		QueueCap:    queueCap,
		Cache:       wsc,
		Logf:        log.Printf,
		Distributed: distributed,
		LeaseTTL:    leaseTTL,

		RetainAge:     retainAge,
		RetainMaxJobs: retainMax,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address line is the daemon's readiness signal —
	// scripts (and the smoke tests) parse the port out of it.
	if distributed {
		log.Printf("listening on %s (coordinator, data %s, queue capacity %d, lease TTL %s)",
			ln.Addr(), data, queueCap, leaseTTL)
	} else {
		log.Printf("listening on %s (data %s, %d in-process slots, queue capacity %d, lease TTL %s)",
			ln.Addr(), data, workers, queueCap, leaseTTL)
	}

	srv := &http.Server{Handler: mgr.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	log.Printf("signal received; draining (budget %s)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the manager first: it checkpoints running jobs and closes
	// their event streams, which lets in-flight SSE handlers finish so
	// the HTTP shutdown below can complete.
	if err := mgr.Shutdown(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("shutdown complete")
	return nil
}

// runWorker runs a trajectory node against a coordinator until
// SIGTERM/SIGINT, then drains: each in-flight job uploads a final
// checkpoint and releases its lease so the coordinator requeues it
// immediately.
func runWorker(coordinator, name, data string, slots int,
	cacheDir string, cacheBytes int64) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	wsc, err := openCache(data, cacheDir, cacheBytes)
	if err != nil {
		return err
	}
	w, err := serve.NewWorker(serve.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Slots:       slots,
		WorkDir:     filepath.Join(data, "scratch"),
		Cache:       wsc,
		Logf:        log.Printf,
	})
	if err != nil {
		return err
	}
	// Readiness line, the worker-mode analogue of "listening on".
	log.Printf("worker %s leasing from %s (%d slots, scratch %s)", name, coordinator, slots, data)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	<-ctx.Done()
	stop()
	log.Printf("signal received; draining (releasing leases)")
	<-done
	log.Printf("shutdown complete")
	return nil
}
