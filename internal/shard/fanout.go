// HTTP fan-out: dispatching one shard of a sweep to a peer replica.
// There is one peer protocol, the public /v1/sweep/stream endpoint — a
// peer is just another replica of the same server — so the fan-out
// path inherits the whole serving stack on the far side:
// canonical-hash caching (backed by the shared store), singleflight
// coalescing, pool backpressure, and context cancellation. Its point
// events arrive one by one, so a peer that dies mid-shard has still
// delivered the points it finished. Cancelling the fan-out context
// closes the HTTP request body, which the peer observes as a client
// disconnect and propagates into its simulation contexts — the
// refcounted cancellation of the flight group, working across
// processes.

package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Header marks a fan-out sub-request. A replica receiving it executes
// the sweep locally instead of re-sharding, which is what keeps two
// mutually-peered replicas from bouncing a sweep between each other
// forever. Execution-only: it never enters a cache key.
const Header = "X-Fgnvm-Shard"

// Peer is one remote replica, addressed by base URL.
type Peer struct {
	BaseURL string
	// Client, when nil, falls back to http.DefaultClient.
	Client *http.Client
}

func (p Peer) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

// SweepStream posts a shard's sub-request to the peer's
// /v1/sweep/stream and returns the live NDJSON event stream. A non-200
// answer is an error carrying the peer's status and message. The
// caller owns the ReadCloser; closing it (or cancelling ctx) releases
// the peer's workers.
func (p Peer) SweepStream(ctx context.Context, body []byte) (io.ReadCloser, error) {
	url := strings.TrimRight(p.BaseURL, "/") + "/v1/sweep/stream"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(Header, "1")
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard: peer %s: %w", p.BaseURL, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shard: peer %s: %s: %s",
			p.BaseURL, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp.Body, nil
}
