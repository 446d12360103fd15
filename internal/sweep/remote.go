package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a sweepd coordinator. It serves two roles:
// submitting jobs — grids (RunGrid) and explorations (RunJob on
// "/explore") — and waiting for them in one poll loop, and pulling
// leased shards as a remote worker (the WorkSource methods, used by
// sweepd -role worker). All state lives on the coordinator; a Client
// is just a base URL and an http.Client.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a coordinator client for a base URL like
// "http://host:8080" (a trailing slash is tolerated).
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Timeout: 60 * time.Second}}
}

// SetToken attaches a tenant API token to every request this client
// makes (sweepd's multi-tenant admission, DESIGN.md §4.8). Empty
// clears it. Returns the client for chaining.
func (c *Client) SetToken(token string) *Client {
	base := c.hc.Transport
	if t, ok := base.(*tokenTransport); ok {
		base = t.base
	}
	if token == "" {
		c.hc.Transport = base
		return c
	}
	c.hc.Transport = &tokenTransport{base: base, token: token}
	return c
}

// tokenTransport adds the Authorization header on every round trip.
type tokenTransport struct {
	base  http.RoundTripper
	token string
}

func (t *tokenTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set("Authorization", "Bearer "+t.token)
	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// apiError decodes sweepd's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("sweep: coordinator: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("sweep: coordinator: HTTP %d", resp.StatusCode)
}

func (c *Client) postJSON(ctx context.Context, path string, in any, out any) error {
	blob, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// --- job submission ----------------------------------------------------

// RunGrid submits the grid for federated execution and waits for the
// results — a drop-in remote counterpart of Engine.Run. Results decode
// from the same JSON the cache persists, so they are byte-identical to
// a local run of the same points. Cancelling ctx abandons the wait.
func (c *Client) RunGrid(ctx context.Context, g Grid, onProgress func(Progress)) (*Results, error) {
	return RunJob[Progress, Results](ctx, c, "/sweep", g, onProgress)
}

// WaitSweep polls a submitted sweep until it completes, forwarding
// progress snapshots to onProgress as they change. Transient transport
// errors are retried with bounded exponential backoff rather than
// abandoning the whole federated sweep; cancelling ctx abandons the
// wait cleanly (the sweep keeps running on the coordinator).
func (c *Client) WaitSweep(ctx context.Context, id string, onProgress func(Progress)) (*Results, error) {
	return waitJob[Progress, Results](ctx, c, "/sweep", id, onProgress)
}

// RunJob submits body to a coordinator job route — "/sweep" takes a
// Grid, "/explore" a search spec — and waits for the job as WaitSweep
// does. P is the route's progress snapshot and R its result: a sweep's
// Results or an exploration's frontier, decoded from the JSON the
// server marshals.
func RunJob[P comparable, R any](ctx context.Context, c *Client, route string, body any, onProgress func(P)) (*R, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.postJSON(ctx, route, body, &out); err != nil {
		return nil, err
	}
	if out.ID == "" {
		return nil, fmt.Errorf("sweep: coordinator returned no %s id", strings.TrimPrefix(route, "/"))
	}
	return waitJob[P, R](ctx, c, route, out.ID, onProgress)
}

// waitRetry bounds waitJob's tolerance for transient poll failures:
// up to waitMaxRetries consecutive transport (or decode) errors are
// retried with exponential backoff from waitBackoffMin, capped at
// waitBackoffMax; a successful poll resets the count. An HTTP error
// status is not transient — the coordinator answered, and it said no.
const waitMaxRetries = 6

var (
	waitBackoffMin = 100 * time.Millisecond
	waitBackoffMax = 2 * time.Second
	waitPollEvery  = 50 * time.Millisecond
)

// jobStatus is one poll's decoded job document. A sweep carries its
// result under "results", an exploration under "frontier".
type jobStatus[P, R any] struct {
	State    string `json:"state"`
	Progress P      `json:"progress"`
	Results  *R     `json:"results"`
	Frontier *R     `json:"frontier"`
	Err      string `json:"err"`
}

// waitJob polls GET route/id until the job is done: the one poll loop
// behind every remote job.
func waitJob[P comparable, R any](ctx context.Context, c *Client, route, id string, onProgress func(P)) (*R, error) {
	kind := strings.TrimPrefix(route, "/")
	var last P
	polled := false
	retries := 0
	backoff := waitBackoffMin
	sleep := func(d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep: wait for %s %s: %w", kind, id, ctx.Err())
		case <-t.C:
			return nil
		}
	}
	for {
		var job jobStatus[P, R]
		err := c.getJSON(ctx, route+"/"+id, &job)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("sweep: wait for %s %s: %w", kind, id, ctx.Err())
			}
			var httpErr *statusError
			if errors.As(err, &httpErr) {
				return nil, err // the coordinator answered; don't retry
			}
			if retries++; retries > waitMaxRetries {
				return nil, fmt.Errorf("sweep: wait for %s %s: giving up after %d retries: %w",
					kind, id, waitMaxRetries, err)
			}
			if err := sleep(backoff); err != nil {
				return nil, err
			}
			if backoff *= 2; backoff > waitBackoffMax {
				backoff = waitBackoffMax
			}
			continue
		}
		retries, backoff = 0, waitBackoffMin
		if onProgress != nil && (!polled || job.Progress != last) {
			last = job.Progress
			onProgress(job.Progress)
		}
		polled = true
		if job.State == "done" {
			res := job.Results
			if res == nil {
				res = job.Frontier
			}
			if job.Err != "" {
				return res, fmt.Errorf("sweep: remote %s %s: %s", kind, id, job.Err)
			}
			if res == nil {
				return nil, fmt.Errorf("sweep: remote %s %s finished without a result", kind, id)
			}
			return res, nil
		}
		if err := sleep(waitPollEvery); err != nil {
			return nil, err
		}
	}
}

// statusError marks a non-2xx coordinator answer — a definitive
// rejection, never retried.
type statusError struct{ err error }

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// getJSON performs one GET round-trip and decodes the 200 body into
// out. A non-200 answer is a *statusError; a decode failure is not,
// because a torn proxy response is transient.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{apiError(resp)}
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// --- WorkSource over HTTP ----------------------------------------------

// maxResultBytes bounds the lease grant a worker reads from the
// coordinator (Client.LeaseShard), mirroring the request cap the
// server enforces (sweepd's maxCompleteBytes): a misbehaving
// coordinator must not be able to balloon a worker's memory with an
// endless body.
const maxResultBytes = 64 << 20

// RegisterWorker implements WorkSource.
func (c *Client) RegisterWorker(name string) (RegisterReply, error) {
	var out struct {
		WorkerID   string `json:"worker_id"`
		LeaseTTLMS int64  `json:"lease_ttl_ms"`
	}
	err := c.postJSON(context.Background(), "/workers/register", map[string]string{"name": name}, &out)
	if err != nil {
		return RegisterReply{}, err
	}
	return RegisterReply{WorkerID: out.WorkerID,
		LeaseTTL: time.Duration(out.LeaseTTLMS) * time.Millisecond}, nil
}

// HeartbeatWorker implements WorkSource.
func (c *Client) HeartbeatWorker(workerID string, traces TraceCache) error {
	return c.postJSON(context.Background(), "/workers/heartbeat", Heartbeat{workerID, traces}, nil)
}

// Heartbeat is the body of POST /workers/heartbeat.
type Heartbeat struct {
	WorkerID   string     `json:"worker_id"`
	TraceCache TraceCache `json:"trace_cache"`
}

// LeaseShard implements WorkSource: 204 means an empty queue, 404 an
// unknown worker (mapped to ErrUnknownWorker so the loop re-registers),
// and a 200 body is a LeaseGrant in the checksummed wire envelope, read
// up to maxResultBytes.
func (c *Client) LeaseShard(workerID string) (*LeaseGrant, error) {
	blob, _ := json.Marshal(map[string]string{"worker_id": workerID})
	resp, err := c.hc.Post(c.base+"/work/lease", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, ErrUnknownWorker
	case http.StatusOK:
	default:
		return nil, apiError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxResultBytes {
		return nil, fmt.Errorf("sweep: lease response exceeds %d bytes", maxResultBytes)
	}
	decodeStart := time.Now()
	m, err := DecodeMessage(data)
	decodeEnd := time.Now()
	if err != nil {
		return nil, err
	}
	grant, ok := m.(*LeaseGrant)
	if !ok {
		return nil, fmt.Errorf("sweep: lease response decoded to %T", m)
	}
	// Stamp the decode window so the worker can report it back as its
	// w:decode span on completion.
	grant.decodeStart, grant.decodeEnd = decodeStart, decodeEnd
	return grant, nil
}

// RenewLease implements WorkSource. The worker id travels with the
// lease id so the coordinator can verify ownership.
func (c *Client) RenewLease(workerID, leaseID string) error {
	return c.postJSON(context.Background(), "/work/renew",
		map[string]string{"worker_id": workerID, "lease_id": leaseID}, nil)
}

// CompleteShard implements WorkSource, posting the completion in the
// checksummed wire envelope.
func (c *Client) CompleteShard(req *CompleteRequest) error {
	frame, err := EncodeMessage(req)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/work/complete", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}
