package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Client is the HTTP client half of the service's transport: it speaks
// the facd API (docs/SERVICE.md) so other processes — the fleet
// coordinator's dispatcher, cmd/experiments -remote, the cmd/facload
// harness, the simsvc and fleet e2e tests — can submit work without
// re-implementing the wire format. A Client is safe for concurrent use.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Token, when non-empty, is presented as a bearer token on every
	// request (required when the daemon was started with -clients).
	Token string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	// Synchronous runs can take minutes, so any custom client's Timeout
	// must accommodate the longest expected simulation; per-call bounds
	// belong in the request context instead.
	HTTPClient *http.Client
}

// RetryError is a 429 refusal carrying the server's Retry-After hint.
type RetryError struct {
	After time.Duration
	Msg   string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("simsvc: over quota (retry after %v): %s", e.After, e.Msg)
}

// StatusError is a non-2xx response that is not a quota refusal.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("simsvc: server status %d: %s", e.Status, e.Msg)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one JSON request. A nil body sends no payload; out, when
// non-nil, receives the decoded 2xx response body. Error responses are
// mapped to RetryError (429) or StatusError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("simsvc: encode request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var payload struct {
			Error string `json:"error"`
		}
		msg := ""
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&payload); err == nil {
			msg = payload.Error
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			after := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
			return &RetryError{After: after, Msg: msg}
		}
		return &StatusError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RunSync runs one spec synchronously (POST /v1/run), returning the
// canonical RunRecord and whether the daemon served it from its
// persistent cache. Cancelling ctx tears down the connection, which
// cancels the simulation on the daemon.
func (c *Client) RunSync(ctx context.Context, spec JobSpec) (obs.RunRecord, bool, error) {
	var resp struct {
		CacheHit bool          `json:"cache_hit"`
		Record   obs.RunRecord `json:"record"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/run", spec, &resp); err != nil {
		return obs.RunRecord{}, false, err
	}
	if resp.Record.Schema != obs.RunRecordSchema {
		return obs.RunRecord{}, false, fmt.Errorf("simsvc: daemon returned record schema %q (want %q)",
			resp.Record.Schema, obs.RunRecordSchema)
	}
	return resp.Record, resp.CacheHit, nil
}

// Submit posts a batch (POST /v1/batches) and returns the batch id and
// per-job ids.
func (c *Client) Submit(ctx context.Context, jobs []JobSpec) (batch string, jobIDs []string, err error) {
	var resp struct {
		Batch string   `json:"batch"`
		Jobs  []string `json:"jobs"`
	}
	req := struct {
		Jobs []JobSpec `json:"jobs"`
	}{jobs}
	if err := c.do(ctx, http.MethodPost, "/v1/batches", req, &resp); err != nil {
		return "", nil, err
	}
	return resp.Batch, resp.Jobs, nil
}

// BatchStatus is the poll view of one batch (GET /v1/batches/{id}).
type BatchStatus struct {
	Batch     string `json:"batch"`
	Total     int    `json:"total"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	Terminal  bool   `json:"terminal"`
}

// Batch polls one batch's status.
func (c *Client) Batch(ctx context.Context, id string) (BatchStatus, error) {
	var st BatchStatus
	err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &st)
	return st, err
}

// WaitBatch polls until the batch is terminal (or ctx ends).
func (c *Client) WaitBatch(ctx context.Context, id string, poll time.Duration) (BatchStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Batch(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Report fetches a finished batch's canonical report bytes
// (GET /v1/batches/{id}/report) — the byte-identity surface of the
// determinism contract, so it is returned raw rather than decoded.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/batches/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Status: resp.StatusCode, Msg: string(data)}
	}
	return data, nil
}

// Healthz probes the daemon's health endpoint (no authentication).
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}

// WorkerNote is an out-parameter a dispatching JobRunner (the fleet
// coordinator) fills with the identity of the worker that served a job,
// so the service can attribute the run in job views and progress events.
// The server plants one in the job context before calling Run; runners
// that execute locally simply never touch it.
type WorkerNote struct {
	mu     sync.Mutex
	worker string
}

// Set records the serving worker (last writer wins, matching the
// at-most-once completion of hedged dispatches: the winner writes last
// on the success path).
func (n *WorkerNote) Set(worker string) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.worker = worker
	n.mu.Unlock()
}

// Get returns the recorded worker ("" when none).
func (n *WorkerNote) Get() string {
	if n == nil {
		return ""
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.worker
}

type workerNoteKey struct{}

// WithWorkerNote returns a context carrying a fresh WorkerNote.
func WithWorkerNote(ctx context.Context) (context.Context, *WorkerNote) {
	n := &WorkerNote{}
	return context.WithValue(ctx, workerNoteKey{}, n), n
}

// NoteWorker records the serving worker on the context's WorkerNote, if
// one is present (no-op otherwise).
func NoteWorker(ctx context.Context, worker string) {
	if n, _ := ctx.Value(workerNoteKey{}).(*WorkerNote); n != nil {
		n.Set(worker)
	}
}
