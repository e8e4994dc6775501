package expmatrix

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ldcdft/internal/serve"
)

// JobClient is the harness's view of a qmdd daemon: submit, wait,
// fetch results. Two implementations: HTTPClient against a running
// daemon (standalone or coordinator — the public API is identical) and
// LocalClient over an in-process serve.Manager.
type JobClient interface {
	// Submit admits one job and returns its ID. Implementations retry
	// admission-control rejections (full queue) with backoff until ctx
	// ends — an experiment grid routinely exceeds the queue capacity.
	Submit(ctx context.Context, spec serve.JobSpec) (string, error)
	// Wait blocks until the job is terminal and returns its state.
	Wait(ctx context.Context, id string) (*serve.JobState, error)
	// Results fetches a completed job's final observable record.
	Results(ctx context.Context, id string) (*serve.Results, error)
}

// submitBackoff paces admission retries after queue-full rejections;
// the poll intervals pace Wait's terminal-state polling.
const (
	submitBackoff = 100 * time.Millisecond
	localPoll     = 25 * time.Millisecond
	httpPoll      = 250 * time.Millisecond
)

// LocalClient runs jobs on an in-process manager — the no-daemon mode
// of cmd/qmdexp and the harness tests.
type LocalClient struct {
	M *serve.Manager
}

func (c *LocalClient) Submit(ctx context.Context, spec serve.JobSpec) (string, error) {
	for {
		st, err := c.M.Submit(spec)
		if err == nil {
			return st.ID, nil
		}
		if !errors.Is(err, serve.ErrQueueFull) {
			return "", err
		}
		select {
		case <-ctx.Done():
			return "", context.Cause(ctx)
		case <-time.After(submitBackoff):
		}
	}
}

func (c *LocalClient) Wait(ctx context.Context, id string) (*serve.JobState, error) {
	for {
		st, err := c.M.Get(id)
		if err != nil {
			return nil, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(localPoll):
		}
	}
}

func (c *LocalClient) Results(_ context.Context, id string) (*serve.Results, error) {
	return c.M.Results(id)
}

// HTTPClient speaks the qmdd HTTP API. Every request carries the
// caller's context, so a cancelled campaign is not held by a daemon
// that keeps a connection open.
type HTTPClient struct {
	Base string // daemon base URL, e.g. http://127.0.0.1:8432
}

func (c *HTTPClient) Submit(ctx context.Context, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for {
		code, raw, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return "", err
		}
		switch code {
		case http.StatusCreated:
			var st serve.JobState
			if err := json.Unmarshal(raw, &st); err != nil {
				return "", err
			}
			return st.ID, nil
		case http.StatusTooManyRequests:
			// Queue full: back off and resubmit.
			select {
			case <-ctx.Done():
				return "", context.Cause(ctx)
			case <-time.After(submitBackoff):
			}
		default:
			return "", apiErr("submit", code, raw)
		}
	}
}

func (c *HTTPClient) Wait(ctx context.Context, id string) (*serve.JobState, error) {
	for {
		var st serve.JobState
		if err := c.getJSON(ctx, "status", "/v1/jobs/"+id, &st); err != nil {
			return nil, err
		}
		if st.Status.Terminal() {
			return &st, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(httpPoll):
		}
	}
}

func (c *HTTPClient) Results(ctx context.Context, id string) (*serve.Results, error) {
	var res serve.Results
	if err := c.getJSON(ctx, "results", "/v1/jobs/"+id+"/results", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// getJSON decodes the 200 response of a GET into out.
func (c *HTTPClient) getJSON(ctx context.Context, op, path string, out any) error {
	code, raw, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return apiErr(op, code, raw)
	}
	return json.Unmarshal(raw, out)
}

// do performs one request under ctx and returns the status and body. A
// request the context ended reports the cancellation cause.
func (c *HTTPClient) do(ctx context.Context, method, path string, body []byte) (code int, raw []byte, err error) {
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = context.Cause(ctx)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// apiErr surfaces the daemon's JSON error envelope.
func apiErr(op string, code int, raw []byte) error {
	var ae struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("expmatrix: %s: HTTP %d: %s", op, code, ae.Error)
	}
	return fmt.Errorf("expmatrix: %s: HTTP %d: %s", op, code, bytes.TrimSpace(raw))
}
