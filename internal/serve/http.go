package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API — one route table in every mode;
// Client is its Go client.
// The client-facing half:
//
//	POST   /v1/jobs             submit a JobSpec  → 201 JobState
//	GET    /v1/jobs             list all jobs     → 200 []JobState
//	GET    /v1/jobs/{id}        job status        → 200 JobState
//	DELETE /v1/jobs/{id}        cancel            → 202 JobState
//	GET    /v1/jobs/{id}/events live SSE stream (status/step/done)
//	GET    /v1/jobs/{id}/results  final observable record → 200 Results
//	GET    /healthz             liveness          → 200 "ok"
//	GET    /metrics             Prometheus text (scheduler + perf registry)
//
// A full queue answers 429, a draining daemon 503, an unknown ID 404,
// cancellation of a finished job 409, and an invalid spec 400.
//
// The worker-facing half — worker nodes lease from the queue the
// in-process slots (if any) also draw on:
//
//	POST /v1/lease                  long-poll acquire → 200 LeaseGrant | 204 no work | 503 draining or epoch not persisted
//	POST /v1/lease/{id}/renew       heartbeat         → 200 {ttl_seconds} | 409 fenced
//	POST /v1/lease/{id}/steps       step progress     → 204 | 409
//	PUT  /v1/lease/{id}/checkpoint  checkpoint upload → 204 | 409
//	GET  /v1/lease/{id}/checkpoint  checkpoint fetch  → 200 bytes | 404 none | 409
//	POST /v1/lease/{id}/complete    terminal report   → 200 JobState | 409
//
// 409 is the fencing answer everywhere: the caller's lease is expired,
// released, or superseded by a newer epoch, and it must abandon the job.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", m.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", m.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/results", m.handleResults)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("POST /v1/lease", m.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/lease/{id}/renew", m.handleLeaseRenew)
	mux.HandleFunc("POST /v1/lease/{id}/steps", m.handleLeaseStep)
	mux.HandleFunc("PUT /v1/lease/{id}/checkpoint", m.handleLeaseCheckpointPut)
	mux.HandleFunc("GET /v1/lease/{id}/checkpoint", m.handleLeaseCheckpointGet)
	mux.HandleFunc("POST /v1/lease/{id}/complete", m.handleLeaseComplete)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// errorCode maps lifecycle errors to HTTP statuses.
func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, errEpochNotPersisted):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNoCheckpoint):
		return http.StatusNotFound
	case errors.Is(err, ErrNoResults):
		return http.StatusNotFound
	case errors.Is(err, ErrAlreadyFinished):
		return http.StatusConflict
	case errors.Is(err, ErrNotLeased), errors.Is(err, ErrStale):
		// Expired, released, or superseded lease: the worker's claim is
		// gone and it must abandon the trajectory.
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid job spec: %w", err))
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := m.Submit(spec)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (m *Manager) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := m.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams the job's event feed as server-sent events until
// the job reaches a terminal state or the client disconnects. Each
// event is `event: <type>` with a JSON data payload.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	events, off, err := m.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	defer off()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
			if ev.Type == "done" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// acquireRequest is the body of POST /v1/lease.
type acquireRequest struct {
	Worker string `json:"worker"`
	// WaitSeconds bounds the long poll; the server caps it at
	// maxAcquireWait.
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// maxAcquireWait caps the acquire long poll so handlers cannot be
// parked indefinitely by a client.
const maxAcquireWait = 60 * time.Second

// renewRequest is the body of POST /v1/lease/{id}/renew.
type renewRequest struct {
	Epoch int64 `json:"epoch"`
}

// renewResponse is the body of a successful renew.
type renewResponse struct {
	TTLSeconds float64 `json:"ttl_seconds"`
}

// stepRequest is the body of POST /v1/lease/{id}/steps.
type stepRequest struct {
	Epoch    int64   `json:"epoch"`
	Step     int     `json:"step"`
	EnergyHa float64 `json:"energy_ha"`
	TempK    float64 `json:"temp_k"`
}

func (m *Manager) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid acquire request: %w", err))
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("acquire requires a worker name"))
		return
	}
	wait := time.Duration(req.WaitSeconds * float64(time.Second))
	if wait < 0 {
		wait = 0
	}
	if wait > maxAcquireWait {
		wait = maxAcquireWait
	}
	grant, err := m.Acquire(r.Context(), req.Worker, wait)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

// leaseEpoch parses the fencing epoch for checkpoint up/downloads out
// of the ?epoch query parameter.
func leaseEpoch(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("epoch")
	if raw == "" {
		return 0, fmt.Errorf("missing epoch parameter")
	}
	return strconv.ParseInt(raw, 10, 64)
}

func (m *Manager) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid renew request: %w", err))
		return
	}
	ttl, err := m.RenewLease(r.PathValue("id"), req.Epoch)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{TTLSeconds: ttl.Seconds()})
}

func (m *Manager) handleLeaseStep(w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid step report: %w", err))
		return
	}
	if err := m.LeaseProgress(r.PathValue("id"), req.Epoch, req.Step, req.EnergyHa, req.TempK); err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (m *Manager) handleLeaseCheckpointPut(w http.ResponseWriter, r *http.Request) {
	epoch, err := leaseEpoch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := m.PutLeaseCheckpoint(r.PathValue("id"), epoch, r.Body); err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (m *Manager) handleLeaseCheckpointGet(w http.ResponseWriter, r *http.Request) {
	epoch, err := leaseEpoch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	f, err := m.OpenLeaseCheckpoint(r.PathValue("id"), epoch)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f)
}

func (m *Manager) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid completion report: %w", err))
		return
	}
	st, err := m.CompleteLease(r.PathValue("id"), req)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
