package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/stream"
)

// Client is a thin HTTP client for a sketchd Server. Updates are shipped in
// the compact binary batch format; everything else is JSON except Snapshot,
// which returns the raw versioned sketch encoding.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for the daemon at base, e.g.
// "http://127.0.0.1:7600". A nil hc means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// APIError is a non-2xx answer from the daemon: the HTTP status plus the
// server's error envelope (stable code, message, optional remediation
// detail). Callers that must react to specific statuses — the gossip
// replicator treats 409 (watermark conflict) differently from a transport
// failure — unwrap it with errors.As.
type APIError struct {
	Status  int
	Method  string
	Path    string
	Code    string
	Message string
	Detail  string
}

// Error renders the failure with the server's message when it sent one.
func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("server: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// do issues a request and decodes the error envelope on non-2xx statuses
// (returned as *APIError).
func (c *Client) do(ctx context.Context, method, path string, contentType string, body []byte) ([]byte, error) {
	return c.doAccept(ctx, method, path, contentType, "", body)
}

// doAccept is do with an explicit Accept header, for the endpoints that
// negotiate a binary response body.
func (c *Client) doAccept(ctx context.Context, method, path, contentType, accept string, body []byte) ([]byte, error) {
	return c.doInto(ctx, method, path, contentType, accept, body, nil)
}

// doInto is doAccept reading the response body into dst's storage, which a
// caller on a steady loop retains so that the body costs no allocation once
// dst has grown to fit it. The returned slice aliases dst when it fits.
func (c *Client) doInto(ctx context.Context, method, path, contentType, accept string, body, dst []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readAllInto(dst, resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Method: method, Path: path}
		// The error field is the nested {"code","message","detail"} envelope;
		// daemons predating it sent a flat string, still decoded for
		// compatibility with mixed-version fleets.
		var e struct {
			Error json.RawMessage `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && len(e.Error) > 0 {
			var d ErrorDetail
			var flat string
			switch {
			case json.Unmarshal(e.Error, &d) == nil && d.Message != "":
				apiErr.Code, apiErr.Message, apiErr.Detail = d.Code, d.Message, d.Detail
			case json.Unmarshal(e.Error, &flat) == nil:
				apiErr.Message = flat
			}
		}
		return nil, apiErr
	}
	return data, nil
}

// readAllInto reads r to EOF into dst's storage, growing it as io.ReadAll
// would when it does not fit.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	b := dst[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// UpdateColumns ships parallel key/delta columns as one SKB3 batch, the
// body the server's column-decoding ingest path reads.
func (c *Client) UpdateColumns(ctx context.Context, items []uint64, deltas []float64) error {
	if len(items) != len(deltas) {
		return fmt.Errorf("server: UpdateColumns length mismatch (%d items, %d deltas)", len(items), len(deltas))
	}
	body := AppendBatchColumns(nil, items, deltas)
	_, err := c.do(ctx, http.MethodPost, "/v1/update", contentTypeBatch, body)
	return err
}

// Query returns the estimates for the given items, in the same order.
func (c *Client) Query(ctx context.Context, items ...uint64) ([]float64, error) {
	if len(items) == 0 {
		return nil, nil
	}
	q := url.Values{}
	for _, item := range items {
		q.Add("item", strconv.FormatUint(item, 10))
	}
	data, err := c.do(ctx, http.MethodGet, "/v1/query?"+q.Encode(), "", nil)
	if err != nil {
		return nil, err
	}
	var resp QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("server: decoding query response: %w", err)
	}
	if len(resp.Estimates) != len(items) {
		return nil, fmt.Errorf("server: query returned %d estimates for %d items", len(resp.Estimates), len(items))
	}
	out := make([]float64, len(items))
	for i, e := range resp.Estimates {
		out[i] = e.Estimate
	}
	return out, nil
}

// QueryBatch posts a whole column of point queries in one POST /v1/query
// round-trip (binary key column out, binary estimate column back) and
// returns the estimates in key order. For repeated batches, BatchQuerier
// reuses its encode/decode buffers across calls.
func (c *Client) QueryBatch(ctx context.Context, keys []uint64) ([]float64, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	ests, _, err := (&BatchQuerier{c: c}).Query(ctx, keys)
	return ests, err
}

// BatchQuerier issues batch point queries over retained buffers — the
// read-side sibling of StreamUpdater's reuse: the SKQ1 request column is
// encoded into, the SKE1 response body read into, and its estimate column
// decoded into the same slices on every call, so a steady query loop
// allocates only what net/http itself does. Not safe for concurrent use;
// create one per goroutine.
type BatchQuerier struct {
	c    *Client
	buf  []byte    // reusable SKQ1 request encoding
	resp []byte    // reusable SKE1 response body
	ests []float64 // reusable decoded estimate column
}

// BatchQuerier returns a reusable batch querier against this client's daemon.
func (c *Client) BatchQuerier() *BatchQuerier { return &BatchQuerier{c: c} }

// Query ships keys as one binary column and returns the estimates in key
// order plus the write generation the daemon answered at. The returned slice
// aliases the querier's retained buffer and is valid until the next call.
func (q *BatchQuerier) Query(ctx context.Context, keys []uint64) ([]float64, int64, error) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	q.buf = AppendKeyColumns(q.buf[:0], keys)
	data, err := q.c.doInto(ctx, http.MethodPost, "/v1/query", contentTypeKeys, contentTypeEstimates, q.buf, q.resp)
	if err != nil {
		return nil, 0, err
	}
	q.resp = data
	var gen int64
	q.ests, gen, err = DecodeEstimateColumns(data, q.ests[:0])
	if err != nil {
		return nil, 0, fmt.Errorf("server: decoding batch query response: %w", err)
	}
	if len(q.ests) != len(keys) {
		return nil, 0, fmt.Errorf("server: batch query returned %d estimates for %d keys", len(q.ests), len(keys))
	}
	return q.ests, gen, nil
}

// TopK returns up to k ranked heavy-hitter candidates (all of them if k <= 0).
func (c *Client) TopK(ctx context.Context, k int) ([]stream.ItemCount, error) {
	path := "/v1/topk"
	if k > 0 {
		path += "?k=" + strconv.Itoa(k)
	}
	return c.ranked(ctx, path)
}

// HeavyHitters returns the candidates whose estimate reaches phi times the
// total stream mass.
func (c *Client) HeavyHitters(ctx context.Context, phi float64) ([]stream.ItemCount, error) {
	return c.ranked(ctx, "/v1/topk?phi="+strconv.FormatFloat(phi, 'g', -1, 64))
}

func (c *Client) ranked(ctx context.Context, path string) ([]stream.ItemCount, error) {
	data, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	var resp TopKResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("server: decoding topk response: %w", err)
	}
	out := make([]stream.ItemCount, len(resp.Items))
	for i, it := range resp.Items {
		out[i] = stream.ItemCount{Item: it.Item, Count: it.Count}
	}
	return out, nil
}

// Recover asks the daemon to run sparse recovery over its live counters.
// Zero-valued request fields select the daemon's configured defaults.
func (c *Client) Recover(ctx context.Context, req RecoverRequest) (RecoverResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RecoverResponse{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/recover", contentTypeJSON, body)
	if err != nil {
		return RecoverResponse{}, err
	}
	var resp RecoverResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return RecoverResponse{}, fmt.Errorf("server: decoding recover response: %w", err)
	}
	return resp, nil
}

// SetQuery returns calibrated estimates over the candidate support S (the
// set-query problem). An empty estimator selects the daemon's default
// (isolate).
func (c *Client) SetQuery(ctx context.Context, support []uint64, estimator string) (SetQueryResponse, error) {
	body, err := json.Marshal(SetQueryRequest{Support: support, Estimator: estimator})
	if err != nil {
		return SetQueryResponse{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/setquery", contentTypeJSON, body)
	if err != nil {
		return SetQueryResponse{}, err
	}
	var resp SetQueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return SetQueryResponse{}, fmt.Errorf("server: decoding setquery response: %w", err)
	}
	return resp, nil
}

// Spectrum posts a sampled signal and returns its sparse Fourier support.
func (c *Client) Spectrum(ctx context.Context, req SpectrumRequest) (SpectrumResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SpectrumResponse{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/spectrum", contentTypeJSON, body)
	if err != nil {
		return SpectrumResponse{}, err
	}
	var resp SpectrumResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return SpectrumResponse{}, fmt.Errorf("server: decoding spectrum response: %w", err)
	}
	return resp, nil
}

// Snapshot fetches the daemon's exact merged state as versioned binary
// encoding bytes, suitable for Merge on a peer or for UnmarshalBinary.
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/snapshot", "", nil)
}

// Merge posts snapshot bytes (from Snapshot on a peer) to be folded into the
// daemon's state via the exact linear merge.
func (c *Client) Merge(ctx context.Context, snapshot []byte) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/merge", contentTypeSnapshot, snapshot)
	return err
}

// Bootstrap fetches the daemon's barrier-consistent bootstrap payload — its
// full snapshot, per-sender gossip watermarks and received-mass trackers —
// for a cold-starting node to absorb before it opens for traffic. nodeID
// identifies the requester (logged on the serving side).
func (c *Client) Bootstrap(ctx context.Context, nodeID string) (*BootstrapPayload, error) {
	path := "/v1/bootstrap"
	if nodeID != "" {
		path += "?node=" + url.QueryEscape(nodeID)
	}
	data, err := c.doAccept(ctx, http.MethodGet, path, "", contentTypeBootstrap, nil)
	if err != nil {
		return nil, err
	}
	p, err := DecodeBootstrapResponse(data, 0)
	if err != nil {
		return nil, fmt.Errorf("server: decoding bootstrap response: %w", err)
	}
	return p, nil
}

// PushDelta ships a replication delta frame to the daemon's /v1/delta
// endpoint and returns its watermark acknowledgment. The server applies the
// frame at most once (see DeltaFrame for the watermark protocol), so
// retrying a frame whose response was lost is always safe. A watermark
// conflict comes back as an *APIError with Status 409.
func (c *Client) PushDelta(ctx context.Context, frame DeltaFrame) (DeltaResponse, error) {
	return c.pushDeltaRaw(ctx, AppendDeltaFrame(nil, frame))
}

// pushDeltaRaw posts pre-encoded delta frame bytes — the replicator retries
// un-acked frames verbatim, so it keeps the encoding around.
func (c *Client) pushDeltaRaw(ctx context.Context, frame []byte) (DeltaResponse, error) {
	data, err := c.do(ctx, http.MethodPost, "/v1/delta", contentTypeDelta, frame)
	if err != nil {
		return DeltaResponse{}, err
	}
	var resp DeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return DeltaResponse{}, fmt.Errorf("server: decoding delta response: %w", err)
	}
	return resp, nil
}

// Stats fetches the daemon's counters and sketch shape.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		return Stats{}, fmt.Errorf("server: decoding stats: %w", err)
	}
	return stats, nil
}
