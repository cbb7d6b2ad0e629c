// Package client is the typed Go client for the inferad daemon's versioned
// /v1/ensembles HTTP API (internal/service): registering ensemble shards,
// routing questions to them, and reading session, provenance and metrics
// state, and following interactive sessions over their server-sent event
// stream, all over the service package's wire types.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"infera/internal/provenance"
	"infera/internal/service"
)

// Client talks to one inferad daemon — or a fleet router, which serves the
// same /v1 surface (see NewRouted). The zero value is not usable; create
// with New.
type Client struct {
	base  string
	http  *http.Client
	retry bool // set by NewRouted only
}

// New returns a client for the daemon at base ("host:port" or a full
// "http://host:port" URL). Asks block for the full workflow, so the
// underlying transport has no overall timeout.
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int    // HTTP status code
	Message string // decoded error body (or raw text)
	// RetryAfter is the response's parsed Retry-After delay (0 if absent)
	// — honored by a routed client before the next attempt.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("inferad: %s (HTTP %d)", e.Message, e.Status)
}

// IsNotFound reports whether err is an APIError with status 404.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// do runs one JSON round-trip, transparently retrying idempotent GETs on a
// routed client (NewRouted). in == nil sends no body; out == nil
// ignores the response body.
func (c *Client) do(method, path string, in, out any) error {
	return c.doRetry(method, path, in, out, method == http.MethodGet)
}

// doRetry runs the round-trip with up to retryAttempts tries when
// retryable on a routed client; otherwise exactly one.
func (c *Client) doRetry(method, path string, in, out any, retryable bool) error {
	attempts := 1
	if retryable && c.retry {
		attempts = retryAttempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoffDelay(i, lastErr))
		}
		err := c.doOnce(method, path, in, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryableError(err) {
			return err
		}
	}
	return lastErr
}

func (c *Client) doOnce(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError turns a non-2xx response into an *APIError, preferring
// the daemon's {"error": ...} body over raw text.
func decodeAPIError(resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var eb struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	ae := &APIError{Status: resp.StatusCode, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

func eidPath(eid string, parts ...string) string {
	p := "/v1/ensembles/" + url.PathEscape(eid)
	for _, part := range parts {
		p += "/" + url.PathEscape(part)
	}
	return p
}

// Healthz checks daemon liveness.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Ensembles lists every registered shard.
func (c *Client) Ensembles() ([]service.ShardInfo, error) {
	var out []service.ShardInfo
	err := c.do(http.MethodGet, "/v1/ensembles", nil, &out)
	return out, err
}

// Register adds an ensemble shard by name and directory (the daemon-side
// path). Registering the same name+dir again is idempotent.
func (c *Client) Register(name, dir string) (service.ShardInfo, error) {
	return c.RegisterShard(service.RegisterRequest{Name: name, Dir: dir})
}

// RegisterShard adds an ensemble shard with the full request payload,
// including per-shard worker/cache-capacity overrides of the daemon
// defaults. Re-registering the same name+dir updates the overrides, which
// apply at the shard's next spin-up.
func (c *Client) RegisterShard(req service.RegisterRequest) (service.ShardInfo, error) {
	var out service.ShardInfo
	err := c.do(http.MethodPost, "/v1/ensembles", req, &out)
	return out, err
}

// Ensemble fetches one shard's detail (live/cold state, workers, cache
// entries, fingerprint age).
func (c *Client) Ensemble(eid string) (service.ShardInfo, error) {
	var out service.ShardInfo
	err := c.do(http.MethodGet, eidPath(eid), nil, &out)
	return out, err
}

// Ask routes one question to shard eid, blocking until the answer (or a
// cache hit) is ready. On a routed client, non-interactive asks retry
// on transient failures: they are deterministic and answer-cache-keyed, so
// a replay either hits the cache or recomputes the identical answer —
// interactive asks (live sessions with approval state) never retry.
func (c *Client) Ask(eid string, req service.AskRequest) (*service.AskResult, error) {
	var out service.AskResult
	if err := c.doRetry(http.MethodPost, eidPath(eid, "ask"), req, &out, !req.Interactive); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sessions lists shard eid's session records.
func (c *Client) Sessions(eid string) ([]service.SessionInfo, error) {
	var out []service.SessionInfo
	err := c.do(http.MethodGet, eidPath(eid, "sessions"), nil, &out)
	return out, err
}

// Session fetches one session record.
func (c *Client) Session(eid, id string) (service.SessionInfo, error) {
	var out service.SessionInfo
	err := c.do(http.MethodGet, eidPath(eid, "sessions", id), nil, &out)
	return out, err
}

// Provenance fetches the artifact manifest behind one session record.
func (c *Client) Provenance(eid, id string) ([]provenance.Entry, error) {
	var out []provenance.Entry
	err := c.do(http.MethodGet, eidPath(eid, "sessions", id, "provenance"), nil, &out)
	return out, err
}

// ArtifactURL is the URL serving the bytes of artifact seq behind session
// record id of shard eid.
func (c *Client) ArtifactURL(eid, id string, seq int) string {
	return c.base + eidPath(eid, "sessions", id, "artifacts", strconv.Itoa(seq))
}

// Artifact fetches the bytes of artifact seq behind one session record —
// the range of the session's log its manifest entry names.
func (c *Client) Artifact(eid, id string, seq int) ([]byte, error) {
	resp, err := c.http.Get(c.ArtifactURL(eid, id, seq))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// ShardMetrics fetches one shard's metrics snapshot.
func (c *Client) ShardMetrics(eid string) (service.Metrics, error) {
	var out service.Metrics
	err := c.do(http.MethodGet, eidPath(eid, "metrics"), nil, &out)
	return out, err
}

// Metrics fetches the aggregate fleet snapshot.
func (c *Client) Metrics() (service.RegistryMetrics, error) {
	var out service.RegistryMetrics
	err := c.do(http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// PrometheusMetrics fetches /v1/metrics/prometheus and returns the raw
// text-exposition body — latency histograms, counters and gauges for every
// shard, ready to hand to a scraper or grep in a load test.
func (c *Client) PrometheusMetrics() (string, error) {
	resp, err := c.http.Get(c.base + "/v1/metrics/prometheus")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// WaitReady polls /healthz until the daemon answers or the deadline
// elapses — a convenience for scripts that just started the process.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := c.Healthz()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("inferad not ready after %s: %w", timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
