package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the coordinator's /v1/* wire protocol. All methods
// are safe for concurrent use.
type Client struct {
	base string
	node string
	hc   *http.Client
}

// NewClient returns a client for the coordinator at base (e.g.
// "http://127.0.0.1:9090"). node names this peer in lease and
// liveness bookkeeping ("" for pure submit/query clients).
func NewClient(base, node string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		node: node,
		// The timeout must clear the coordinator's long-poll window
		// (maxPollWait) with margin, not race it.
		hc: &http.Client{Timeout: maxPollWait + 10*time.Second},
	}
}

// Caps on the coordinator responses the client decodes, so a faulty or
// hostile coordinator cannot make a node buffer without bound. A fetch
// response carries one archived trace, the payload a submit request
// carries, so it gets the coordinator's own request cap. Every other
// response is an envelope or a listing: a bucket verdict encodes to a
// few hundred bytes, so 8 MiB holds tens of thousands of buckets.
const (
	maxResponseBytes      = 8 << 20
	maxFetchResponseBytes = maxRequestBytes
)

// decode parses one JSON response of at most limit bytes from body.
// A response over the cap is an error even if its prefix parses.
func decode(path string, body io.Reader, limit int64, v interface{}) error {
	lr := &io.LimitedReader{R: body, N: limit + 1}
	err := json.NewDecoder(lr).Decode(v)
	if lr.N <= 0 {
		return fmt.Errorf("cluster: %s: response exceeds %d bytes", path, limit)
	}
	if err != nil {
		return fmt.Errorf("cluster: decode %s: %w", path, err)
	}
	return nil
}

// post round-trips one JSON request. Transport and decode errors are
// returned as errors; protocol-level rejections ride in the response
// envelope (OK=false).
func (cl *Client) post(path string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	hr, err := cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 512))
		return fmt.Errorf("cluster: %s: HTTP %d: %s", path, hr.StatusCode, bytes.TrimSpace(msg))
	}
	limit := int64(maxResponseBytes)
	if path == PathFetch {
		limit = maxFetchResponseBytes
	}
	return decode(path, hr.Body, limit, resp)
}

// get fetches and decodes one JSON listing.
func (cl *Client) get(path string, resp interface{}) error {
	hr, err := cl.hc.Get(cl.base + path)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer hr.Body.Close()
	return decode(path, hr.Body, maxResponseBytes, resp)
}

// Lease asks for the next unleased bucket, long-polling up to wait.
func (cl *Client) Lease(wait time.Duration) (*LeaseResponse, error) {
	var resp LeaseResponse
	err := cl.post(PathLease, &LeaseRequest{
		V: ProtocolVersion, Node: cl.node, WaitMillis: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew heartbeats a held lease; the request may piggyback the
// node's latest replay span snapshot and runtime vitals.
func (cl *Client) Renew(req *RenewRequest) (*RenewResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp RenewResponse
	if err := cl.post(PathRenew, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Fetch asks for the next banked occurrence matching the cursor.
func (cl *Client) Fetch(app string, key, term, afterSeq uint64, version int, wait time.Duration) (*FetchResponse, error) {
	var resp FetchResponse
	err := cl.post(PathFetch, &FetchRequest{
		V: ProtocolVersion, Node: cl.node, App: app, Key: key, Term: term,
		AfterSeq: afterSeq, Version: version, WaitMillis: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Rollout ships the full accumulated site chain for deployment.
func (cl *Client) Rollout(req *RolloutRequest) (*RolloutResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp RolloutResponse
	if err := cl.post(PathRollout, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Resolve commits a finished reconstruction.
func (cl *Client) Resolve(req *ResolveRequest) (*ResolveResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp ResolveResponse
	if err := cl.post(PathResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Submit ships one externally captured occurrence into the
// coordinator's ingest path.
func (cl *Client) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	req.V = ProtocolVersion
	var resp SubmitResponse
	if err := cl.post(PathSubmit, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Verdicts lists every bucket's triage outcome.
func (cl *Client) Verdicts() (*VerdictsResponse, error) {
	var resp VerdictsResponse
	if err := cl.get(PathVerdicts, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// State fetches the coordinator's cluster snapshot.
func (cl *Client) State() (*ClusterSnapshot, error) {
	var snap ClusterSnapshot
	if err := cl.get(PathState, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
