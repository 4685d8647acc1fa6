package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Error is the typed form of a /v1/ error envelope: the HTTP status it was
// written under, the stable code, the human message, and the request ID
// for quoting back in a report.
type Error struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

// Error implements error.
func (e *Error) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("api: %s (%s, http %d, request %s)", e.Message, e.Code, e.Status, e.RequestID)
	}
	return fmt.Sprintf("api: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// ErrorCode extracts the stable code from an error chain ("" when the
// error is not a wire error).
func ErrorCode(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

// Retryable reports whether a failed call is worth retrying against the
// same endpoint: transient capacity rejections (queue_full, throttled,
// quota_exceeded) and transport errors, but never input/lookup errors,
// auth failures, shutdown, or the caller's own context expiring.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var e *Error
	if errors.As(err, &e) {
		switch e.Code {
		case CodeQueueFull, CodeThrottled, CodeQuotaExceeded:
			return true
		}
		return false
	}
	return true // transport-level failure
}

// ClientOptions tunes NewClient; the zero value is usable.
type ClientOptions struct {
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// APIKey, when set, is sent as Authorization: Bearer on every request
	// (the multi-tenant edge tier's credential).
	APIKey string
	// Retries is how many times idempotent calls (predict, reads) are
	// re-attempted after a Retryable failure; 0 disables retrying.
	Retries int
	// RetryBackoff is the base delay between attempts, doubled each retry
	// (default 100ms when Retries > 0).
	RetryBackoff time.Duration
}

// Client is the typed Go client for the /v1/ surface of either tier. It
// speaks exactly the wire types in this package, maps error envelopes to
// *Error, honors contexts, and retries idempotent calls on transient
// rejections with exponential backoff.
type Client struct {
	base    string
	http    *http.Client
	apiKey  string
	retries int
	backoff time.Duration
}

// NewClient builds a client for base (e.g. "http://10.0.0.3:8090"); a
// trailing slash is trimmed.
func NewClient(base string, opts ClientOptions) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, http: hc, apiKey: opts.APIKey, retries: opts.Retries, backoff: backoff}
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

// do runs one HTTP round trip and decodes the response into out (skipped
// when out is nil). Non-2xx responses become *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError maps a non-2xx response to *Error; a body that is not an
// envelope still yields a typed error with code "internal".
func decodeError(resp *http.Response) error {
	e := &Error{Status: resp.StatusCode, Code: CodeInternal, RequestID: resp.Header.Get("X-Request-ID")}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		if env.Error.RequestID != "" {
			e.RequestID = env.Error.RequestID
		}
	} else {
		e.Message = fmt.Sprintf("unexpected status %d", resp.StatusCode)
	}
	return e
}

// doRetry is do plus the client's retry policy for idempotent calls.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.do(ctx, method, path, in, out); err == nil || attempt >= c.retries || !Retryable(err) {
			return err
		}
		delay := c.backoff << attempt
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Predict classifies one chip. Retries (when configured) are safe:
// inference is idempotent.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	var out PredictResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/predict", req, &out)
	return out, err
}

// Health fetches /v1/healthz. A degraded (503) report is returned as the
// document, not an error, so probes can read the reason.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.doRetry(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	var e *Error
	if errors.As(err, &e) && e.Status == http.StatusServiceUnavailable {
		return HealthResponse{Status: "degraded", Error: e.Message}, nil
	}
	return out, err
}

// StartScan submits a scan job. Never retried: job creation is not
// idempotent, and a retry after an ambiguous failure could start two
// scans.
func (c *Client) StartScan(ctx context.Context, req ScanRequest) (ScanJob, error) {
	var out ScanJob
	err := c.do(ctx, http.MethodPost, "/v1/scan", req, &out)
	return out, err
}

// ScanStatus polls one job.
func (c *Client) ScanStatus(ctx context.Context, id string) (ScanJob, error) {
	var out ScanJob
	err := c.doRetry(ctx, http.MethodGet, "/v1/scan/"+url.PathEscape(id), nil, &out)
	return out, err
}

// CancelScan cancels a running job; the returned status reflects the
// cancellation (already-finished jobs return their terminal state).
func (c *Client) CancelScan(ctx context.Context, id string) (ScanJob, error) {
	var out ScanJob
	err := c.do(ctx, http.MethodDelete, "/v1/scan/"+url.PathEscape(id), nil, &out)
	return out, err
}

// ScanEventStream iterates a job's NDJSON event stream.
type ScanEventStream struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// newScanEventStream reads NDJSON events from body.
func newScanEventStream(body io.ReadCloser) *ScanEventStream {
	return &ScanEventStream{body: body, dec: json.NewDecoder(body)}
}

// Next returns the next event; io.EOF after the terminal event.
func (s *ScanEventStream) Next() (ScanEvent, error) {
	var ev ScanEvent
	err := s.dec.Decode(&ev)
	return ev, err
}

// Close releases the underlying connection.
func (s *ScanEventStream) Close() error { return s.body.Close() }

// ScanEvents opens a job's event stream from sequence number from (0
// replays the whole scan, then follows live). Cancel ctx to stop
// following.
func (c *Client) ScanEvents(ctx context.Context, id string, from int) (*ScanEventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/scan/%s/events?from=%d", c.base, url.PathEscape(id), from), nil)
	if err != nil {
		return nil, err
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		return nil, decodeError(resp)
	}
	return newScanEventStream(resp.Body), nil
}
