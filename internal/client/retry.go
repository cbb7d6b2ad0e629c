package client

import (
	"errors"
	"math/rand"
	"net/http"
	"time"
)

// A routed client's retry: at most retryAttempts tries in all, with a
// jittered exponential backoff from retryBaseDelay, capped at
// retryMaxDelay, between them. A Retry-After header on the failed response
// overrides the computed delay.
const (
	retryAttempts  = 4
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// NewRouted returns a client for a fleet router at base, the only client
// that retries: idempotent GETs and non-interactive (cache-hit-eligible)
// asks retry on transient transport failures (connection refused, reset)
// and 502/503/504 responses — the failure modes a fleet router surfaces
// while a node crash is being failed over — so brief node failovers
// surface as slower answers instead of errors. POSTs with side effects
// (plan decisions, registration) and interactive asks are never retried.
func NewRouted(base string) *Client {
	c := New(base)
	c.retry = true
	return c
}

// retryableError reports whether err is worth another attempt: transport
// failures (the daemon or router vanished mid-request) and the transient
// gateway statuses. 4xx means the request itself is wrong; 500/501 means a
// non-transient server condition.
func retryableError(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Anything else from do() at this layer is a transport error
	// (connection refused/reset, unexpected EOF) — the class failover
	// produces.
	return err != nil
}

// backoffDelay computes the pause before attempt n (1-based count of
// failures so far): a Retry-After from the server wins, otherwise
// retryBaseDelay·2^(n-1) capped at retryMaxDelay, jittered ±50% so a herd
// of retrying clients doesn't re-arrive in lockstep.
func backoffDelay(n int, lastErr error) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	d := retryBaseDelay << (n - 1)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
