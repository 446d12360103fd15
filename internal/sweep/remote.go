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
// submitting grids for federated execution (RunGrid) and pulling
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

func (c *Client) postJSON(path string, in any, out any) error {
	blob, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(blob))
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

// --- grid submission ---------------------------------------------------

// SubmitGrid posts a grid and returns the sweep id.
func (c *Client) SubmitGrid(g Grid) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.postJSON("/sweep", g, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("sweep: coordinator returned no sweep id")
	}
	return out.ID, nil
}

// waitRetry bounds WaitSweep's tolerance for transient poll failures:
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

// WaitSweep polls a submitted sweep until it completes, forwarding
// progress snapshots to onProgress as they change. Transient transport
// errors are retried with bounded exponential backoff rather than
// abandoning the whole federated sweep; cancelling ctx abandons the
// wait cleanly (the sweep keeps running on the coordinator).
func (c *Client) WaitSweep(ctx context.Context, id string, onProgress func(Progress)) (*Results, error) {
	var last Progress
	last.Done = -1
	retries := 0
	backoff := waitBackoffMin
	sleep := func(d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep: wait for sweep %s: %w", id, ctx.Err())
		case <-t.C:
			return nil
		}
	}
	for {
		job, err := c.pollSweep(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("sweep: wait for sweep %s: %w", id, ctx.Err())
			}
			var httpErr *statusError
			if errors.As(err, &httpErr) {
				return nil, err // the coordinator answered; don't retry
			}
			if retries++; retries > waitMaxRetries {
				return nil, fmt.Errorf("sweep: wait for sweep %s: giving up after %d retries: %w",
					id, waitMaxRetries, err)
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
		if onProgress != nil && job.Progress != last {
			last = job.Progress
			onProgress(job.Progress)
		}
		if job.State == "done" {
			if job.Err != "" {
				return job.Results, fmt.Errorf("sweep: remote sweep %s: %s", id, job.Err)
			}
			if job.Results == nil {
				return nil, fmt.Errorf("sweep: remote sweep %s finished without results", id)
			}
			return job.Results, nil
		}
		if err := sleep(waitPollEvery); err != nil {
			return nil, err
		}
	}
}

// sweepStatus is one poll's decoded job document.
type sweepStatus struct {
	State    string   `json:"state"`
	Progress Progress `json:"progress"`
	Results  *Results `json:"results"`
	Err      string   `json:"err"`
}

// statusError marks a non-2xx coordinator answer — a definitive
// rejection, never retried.
type statusError struct{ err error }

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// pollSweep performs one GET /sweep/{id} round-trip.
func (c *Client) pollSweep(ctx context.Context, id string) (*sweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/sweep/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{apiError(resp)}
	}
	var job sweepStatus
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil {
		return nil, err // treated as transient — a torn proxy response
	}
	return &job, nil
}

// RunGrid submits the grid for federated execution and waits for the
// results — a drop-in remote counterpart of Engine.Run. Results decode
// from the same JSON the cache persists, so they are byte-identical to
// a local run of the same points. Cancelling ctx abandons the wait.
func (c *Client) RunGrid(ctx context.Context, g Grid, onProgress func(Progress)) (*Results, error) {
	id, err := c.SubmitGrid(g)
	if err != nil {
		return nil, err
	}
	return c.WaitSweep(ctx, id, onProgress)
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
	err := c.postJSON("/workers/register", map[string]string{"name": name}, &out)
	if err != nil {
		return RegisterReply{}, err
	}
	return RegisterReply{WorkerID: out.WorkerID,
		LeaseTTL: time.Duration(out.LeaseTTLMS) * time.Millisecond}, nil
}

// HeartbeatWorker implements WorkSource.
func (c *Client) HeartbeatWorker(workerID string) error {
	return c.postJSON("/workers/heartbeat", map[string]string{"worker_id": workerID}, nil)
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
	return c.postJSON("/work/renew",
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
