// Package mth is the typed Go client of the placement service's /v1 API
// (cmd/mthserved): submit jobs singly or in batches, wait for their
// results, fetch their traces, and read the service's /stats, job list and
// /metrics. Request and view types are the scheduler's own, so client and
// server cannot drift on the wire shape.
//
//	c := mth.NewClient("http://localhost:8080")
//	v, _ := c.Submit(ctx, mth.JobRequest{Testcase: "aes_300", Flows: []int{5}})
//	res, _ := c.Wait(ctx, v.ID)
//
// In-process callers run the flows directly through internal/flow.
package mth

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
)

// JobRequest is the service submit body: a testcase (or inline spec) plus
// per-job flow overrides. Aliased from the scheduler so client and server
// can never drift on the wire shape.
type JobRequest = scheduler.JobRequest

// JobView is the service's wire representation of a job.
type JobView = scheduler.JobView

// JobState is a remote job's lifecycle phase.
type JobState = scheduler.State

// Remote job lifecycle states.
const (
	JobQueued   = scheduler.StateQueued
	JobRunning  = scheduler.StateRunning
	JobDone     = scheduler.StateDone
	JobFailed   = scheduler.StateFailed
	JobCanceled = scheduler.StateCanceled
)

// JobResult is a finished job's payload from GET /v1/jobs/{id}/result.
type JobResult struct {
	// ID is the owning job.
	ID string `json:"id"`
	// Metrics maps the flow number (as a decimal string, matching the wire)
	// to its measurements.
	Metrics map[string]flow.Metrics `json:"metrics"`
	// Placements maps the flow number to the SHA-256 digest of its final
	// placement — the witness that two runs are bit-identical.
	Placements map[string]string `json:"placements"`
	// CacheHit marks a result served from the solve cache.
	CacheHit bool `json:"cache_hit"`
}

// APIError is a non-2xx service response, preserving the status code so
// callers can branch on 429/409/422 without string matching.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the service's Retry-After hint, when the response
	// carried one (429 queue-full and 503 unavailable responses do). Zero
	// means no hint.
	RetryAfter time.Duration
	// hasHint distinguishes an explicit "Retry-After: 0" from no header.
	hasHint bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mth: service returned %d: %s", e.Status, e.Message)
}

// Retryable reports whether the error is a back-pressure response (429 or
// 503) that the same request may survive after the Retry-After delay.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// retryDelay is the pause before re-attempting a Retryable response: the
// service's own hint when it sent one (floored so an explicit "0" cannot
// busy-loop), else a conservative default.
func (e *APIError) retryDelay() time.Duration {
	const floor, fallback = 10 * time.Millisecond, 250 * time.Millisecond
	if !e.hasHint {
		return fallback
	}
	if e.RetryAfter < floor {
		return floor
	}
	return e.RetryAfter
}

// parseRetryAfter reads an HTTP Retry-After header in its delta-seconds
// form. ok is false for absent or unparseable values.
func parseRetryAfter(h string) (d time.Duration, ok bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// sleepCtx pauses for d or until ctx is done, whichever first, returning
// ctx's error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client talks to a placement service (cmd/mthserved) over its /v1 API.
// The zero value is not usable; construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
	// cacheControl, when non-empty, is sent as the Cache-Control header on
	// every submit (see the CacheBypass/CacheNoStore/CacheOff options).
	cacheControl string
	// traceparent, when non-empty, is sent as the W3C traceparent header on
	// every submit, so the service's distributed traces continue this
	// client's trace (see WithTraceparent).
	traceparent string
}

// ClientOption customises a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithCacheBypass makes every submission solve fresh while still storing
// the result for later callers (Cache-Control: no-cache).
func WithCacheBypass() ClientOption {
	return func(c *Client) { c.cacheControl = "no-cache" }
}

// WithCacheNoStore lets submissions be served from cache but never adds to
// it (Cache-Control: no-store).
func WithCacheNoStore() ClientOption {
	return func(c *Client) { c.cacheControl = "no-store" }
}

// WithCacheOff disables the solve cache for this client's submissions
// entirely (Cache-Control: no-cache, no-store).
func WithCacheOff() ClientOption {
	return func(c *Client) { c.cacheControl = "no-cache, no-store" }
}

// WithTraceparent stamps every submission with the given W3C traceparent
// header ("00-<trace-id>-<span-id>-01"), making the caller's span the
// parent of each job's distributed trace. The service ignores malformed
// values, so passing through an upstream header verbatim is safe.
func WithTraceparent(tp string) ClientOption {
	return func(c *Client) { c.traceparent = tp }
}

// NewClient builds a client for the service at base (e.g.
// "http://localhost:8080"). A trailing slash is tolerated.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// send issues one request and returns the body of its 2xx response.
// Non-2xx responses become *APIError.
func (c *Client) send(ctx context.Context, method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		buf := &bytes.Buffer{}
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			return nil, fmt.Errorf("mth: encoding request: %w", err)
		}
		rd = buf
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("mth: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		if c.cacheControl != "" {
			req.Header.Set("Cache-Control", c.cacheControl)
		}
		if c.traceparent != "" {
			req.Header.Set("traceparent", c.traceparent)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("mth: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("mth: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &e)
		if e.Error == "" {
			e.Error = strings.TrimSpace(string(raw))
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: e.Error}
		apiErr.RetryAfter, apiErr.hasHint = parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, apiErr
	}
	return raw, nil
}

// do issues one request and decodes the JSON body of its 2xx response into
// out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	raw, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("mth: decoding response: %w", err)
	}
	return nil
}

// submitAttempts bounds how many times Submit re-tries a back-pressure
// response before surfacing it.
const submitAttempts = 4

// Submit enqueues one job and returns its accepted view. Queue-full (429)
// and unavailable (503) responses are retried up to three times, honouring
// the service's Retry-After hint; ctx bounds the whole attempt including
// the sleeps between tries.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobView, error) {
	var v JobView
	for attempt := 1; ; attempt++ {
		err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &v)
		var apiErr *APIError
		if err == nil || attempt >= submitAttempts ||
			!errors.As(err, &apiErr) || !apiErr.Retryable() {
			return v, err
		}
		if serr := sleepCtx(ctx, apiErr.retryDelay()); serr != nil {
			return JobView{}, serr
		}
	}
}

// BatchSlot is one element of a batch response: the accepted job's view, or
// the rejection that request earned.
type BatchSlot struct {
	Job    *JobView `json:"job,omitempty"`
	Error  string   `json:"error,omitempty"`
	Status int      `json:"status,omitempty"`
}

// SubmitBatch submits every request in one round trip against POST
// /v1/jobs:batch. Slots pair 1:1 with the requests; a rejected member does
// not sink its siblings (the service answers 207), so callers must check
// each slot. The returned error covers whole-batch failures: transport
// errors, a malformed body, or a batch whose every member was rejected.
func (c *Client) SubmitBatch(ctx context.Context, reqs []JobRequest) ([]BatchSlot, error) {
	var out struct {
		Jobs []BatchSlot `json:"jobs"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", map[string]any{"jobs": reqs}, &out)
	if err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Status fetches a job's current view.
func (c *Client) Status(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &v)
	return v, err
}

// Result fetches a finished job's metrics. While the job is still running
// the service answers 409, surfaced as *APIError.
func (c *Client) Result(ctx context.Context, id string) (JobResult, error) {
	var r JobResult
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &r)
	return r, err
}

// Trace fetches a job's merged multi-process timeline as Chrome
// trace_event JSON (raw bytes, ready to save and load in chrome://tracing
// or Perfetto). The service answers 404 until the job has recorded at
// least one span, or after the trace was evicted.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	return c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
}

// Jobs lists every job the service knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobView, error) {
	var out struct {
		Jobs []JobView `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Stats fetches the service's GET /stats snapshot: queue and worker
// occupancy, job lifecycle counters, per-lane health and the solve cache.
func (c *Client) Stats(ctx context.Context) (scheduler.StatsSnapshot, error) {
	var st scheduler.StatsSnapshot
	err := c.do(ctx, http.MethodGet, "/stats", nil, &st)
	return st, err
}

// Metrics fetches GET /metrics, the Prometheus text exposition of the
// service's counters, gauges and histograms.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	return string(raw), err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &v)
	return v, err
}

// Wait polls until the job reaches a terminal state and returns its result.
// Cache hits return immediately on the first poll. The poll interval backs
// off from 10ms to 1s; ctx bounds the whole wait. Back-pressure responses
// (429/503) from a poll are treated as "still working": Wait sleeps the
// service's Retry-After hint and polls again rather than aborting.
func (c *Client) Wait(ctx context.Context, id string) (JobResult, error) {
	interval := 10 * time.Millisecond
	for {
		v, err := c.Status(ctx, id)
		if err != nil {
			var apiErr *APIError
			if !errors.As(err, &apiErr) || !apiErr.Retryable() {
				return JobResult{}, err
			}
			if serr := sleepCtx(ctx, apiErr.retryDelay()); serr != nil {
				return JobResult{}, serr
			}
			continue
		}
		if v.State.Terminal() {
			if v.State != JobDone {
				return JobResult{}, fmt.Errorf("mth: job %s finished %s: %s", id, v.State, v.Error)
			}
			return c.Result(ctx, id)
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return JobResult{}, err
		}
		if interval < time.Second {
			interval *= 2
		}
	}
}
