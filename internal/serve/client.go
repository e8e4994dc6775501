package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// ErrFenced is a Client's report of a 409: the lease the call presented
// is expired, released or superseded, and its holder must abandon the
// job (on Cancel: the job had already finished). The daemon's message,
// attached to the error, says which.
var ErrFenced = errors.New("serve: fenced")

// waitPoll paces Client.Wait's terminal-state polling.
const waitPoll = 100 * time.Millisecond

// Client speaks the daemon's HTTP API (Handler) — the job half qmdctl
// and the experiment harness use and the lease half a worker node uses —
// with the request and response types the handlers decode. Every method
// runs under the caller's ctx and returns context.Cause(ctx) once ctx
// has ended. A non-2xx answer wraps the sentinel of its status — 429
// ErrQueueFull, 503 ErrShuttingDown, 404 ErrNotFound, 409 ErrFenced —
// and carries the daemon's message.
type Client struct {
	base string
}

// NewClient returns a client of the daemon at base (http://host:port).
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/")}
}

// statusSentinels maps the API's error statuses to the sentinels a
// Client's errors wrap.
var statusSentinels = map[int]error{
	http.StatusTooManyRequests:    ErrQueueFull,
	http.StatusServiceUnavailable: ErrShuttingDown,
	http.StatusNotFound:           ErrNotFound,
	http.StatusConflict:           ErrFenced,
}

// send issues one request under ctx and returns its 2xx response, whose
// body the caller closes.
func (c *Client) send(ctx context.Context, method, path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, causeOr(ctx, err)
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env apiError
	msg := string(bytes.TrimSpace(raw))
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		msg = env.Error
	}
	sentinel, ok := statusSentinels[resp.StatusCode]
	if !ok {
		return nil, fmt.Errorf("%s: %s", resp.Status, msg)
	}
	// %.0w wraps the sentinel for errors.Is without printing it: the
	// status and the daemon's message already say what failed.
	return nil, fmt.Errorf("%s: %s%.0w", resp.Status, msg, sentinel)
}

// call sends in as JSON (no body when nil) and decodes the answer into
// out unless out is nil or the answer is 204 No Content.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	resp, err := c.send(ctx, method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return causeOr(ctx, err)
	}
	return nil
}

// callFor is call for a route that answers with a T.
func callFor[T any](ctx context.Context, c *Client, method, path string, in any) (*T, error) {
	var out T
	if err := c.call(ctx, method, path, in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// causeOr reports the cancellation cause of a request ctx ended, err
// otherwise.
func causeOr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return err
}

func jobPath(id string) string { return "/v1/jobs/" + url.PathEscape(id) }

func leasePath(id, op string) string { return "/v1/lease/" + url.PathEscape(id) + "/" + op }

func checkpointPath(id string, epoch int64) string {
	return fmt.Sprintf("%s?epoch=%d", leasePath(id, "checkpoint"), epoch)
}

// Submit admits one job (POST /v1/jobs).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobState, error) {
	return callFor[JobState](ctx, c, http.MethodPost, "/v1/jobs", spec)
}

// Job returns a job's state (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*JobState, error) {
	return callFor[JobState](ctx, c, http.MethodGet, jobPath(id), nil)
}

// Jobs lists every known job in admission order (GET /v1/jobs).
func (c *Client) Jobs(ctx context.Context) ([]*JobState, error) {
	var jobs []*JobState
	if err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, &jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Cancel cancels a queued or running job (DELETE /v1/jobs/{id}).
func (c *Client) Cancel(ctx context.Context, id string) (*JobState, error) {
	return callFor[JobState](ctx, c, http.MethodDelete, jobPath(id), nil)
}

// Results fetches a completed job's final observable record (GET
// /v1/jobs/{id}/results).
func (c *Client) Results(ctx context.Context, id string) (*Results, error) {
	return callFor[Results](ctx, c, http.MethodGet, jobPath(id)+"/results", nil)
}

// Events streams the job's events to fn (GET /v1/jobs/{id}/events) until
// the daemon ends the stream after the "done" event.
func (c *Client) Events(ctx context.Context, id string, fn func(Event)) error {
	resp, err := c.send(ctx, http.MethodGet, jobPath(id)+"/events", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		fn(ev)
	}
	if err := sc.Err(); err != nil {
		return causeOr(ctx, err)
	}
	return nil
}

// Wait polls the job until it is terminal and returns its final state.
func (c *Client) Wait(ctx context.Context, id string) (*JobState, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil || st.Status.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(waitPoll):
		}
	}
}

// Acquire long-polls for a lease for worker (POST /v1/lease); (nil, nil)
// means no work arrived within wait.
func (c *Client) Acquire(ctx context.Context, worker string, wait time.Duration) (*LeaseGrant, error) {
	var g *LeaseGrant
	err := c.call(ctx, http.MethodPost, "/v1/lease",
		acquireRequest{Worker: worker, WaitSeconds: wait.Seconds()}, &g)
	return g, err
}

// Renew heartbeats the lease (POST /v1/lease/{id}/renew) and returns the
// TTL it was extended by.
func (c *Client) Renew(ctx context.Context, id string, epoch int64) (time.Duration, error) {
	rr, err := callFor[renewResponse](ctx, c, http.MethodPost, leasePath(id, "renew"), renewRequest{Epoch: epoch})
	if err != nil {
		return 0, err
	}
	return time.Duration(rr.TTLSeconds * float64(time.Second)), nil
}

// Step reports a completed MD step (POST /v1/lease/{id}/steps).
func (c *Client) Step(ctx context.Context, id string, epoch int64, step int, energyHa, tempK float64) error {
	return c.call(ctx, http.MethodPost, leasePath(id, "steps"),
		stepRequest{Epoch: epoch, Step: step, EnergyHa: energyHa, TempK: tempK}, nil)
}

// PutCheckpoint uploads the lease's checkpoint (PUT
// /v1/lease/{id}/checkpoint).
func (c *Client) PutCheckpoint(ctx context.Context, id string, epoch int64, r io.Reader) error {
	resp, err := c.send(ctx, http.MethodPut, checkpointPath(id, epoch), "application/octet-stream", r)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// GetCheckpoint opens the job's stored checkpoint for the lease holder
// (GET /v1/lease/{id}/checkpoint); the caller closes it.
func (c *Client) GetCheckpoint(ctx context.Context, id string, epoch int64) (io.ReadCloser, error) {
	resp, err := c.send(ctx, http.MethodGet, checkpointPath(id, epoch), "", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Complete reports the lease's terminal outcome (POST
// /v1/lease/{id}/complete).
func (c *Client) Complete(ctx context.Context, id string, req CompleteRequest) (*JobState, error) {
	return callFor[JobState](ctx, c, http.MethodPost, leasePath(id, "complete"), req)
}
