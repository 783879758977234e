package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is one load generator's HTTP side: a private transport capped at
// one connection per host, so the number of generators is the number of
// connections the cluster sees.
type client struct {
	hc  *http.Client
	rec *recorder
	// ref labels this client's spans (the operation it is running).
	ref string
}

func newClient(rec *recorder) *client {
	return &client{rec: rec, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body. etag, when non-empty, is
// replayed as If-None-Match.
func (c *client) do(ctx context.Context, method, url string, body []byte, etag string) (status int, respBody []byte, respETag string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	respBody, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, nil, "", err
	}
	if c.rec.enabled() {
		name := spanClientRead
		if method == http.MethodPost {
			name = spanClientPost
		}
		c.rec.add(span{Name: name, Ref: c.ref, N: len(respBody)}, t0, time.Now())
	}
	return resp.StatusCode, respBody, resp.Header.Get("ETag"), nil
}

// post submits a pre-rendered /v1/tx body; anything but 200 is an error
// carrying the envelope.
func (c *client) post(ctx context.Context, base string, body []byte) error {
	status, resp, _, err := c.do(ctx, http.MethodPost, base+"/v1/tx", body, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &statusError{status: status, body: string(bytes.TrimSpace(resp))}
	}
	return nil
}

// getJSON fetches url and decodes a 200 body into v. It returns the status
// so callers can treat 404 as "not yet".
func (c *client) getJSON(ctx context.Context, url string, v any) (int, error) {
	status, body, _, err := c.do(ctx, http.MethodGet, url, nil, "")
	if err != nil {
		return 0, err
	}
	if status == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			return status, fmt.Errorf("GET %s: decode: %w", url, err)
		}
	}
	return status, nil
}

// statusError is a non-200 answer to a POST.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.body) }

// The response shapes the benchmark checks, reduced to the fields it
// reads (encoding/json skips the rest).

type receiptBody struct {
	TxHash        string `json:"txHash"`
	Success       bool   `json:"success"`
	Error         string `json:"error"`
	Confirmations uint64 `json:"confirmations"`
	PaidGwei      uint64 `json:"paidGwei"`
	Accepted      int    `json:"acceptedFindings"`
}

type referenceBody struct {
	ID             string         `json:"id"`
	ConfirmedVulns uint64         `json:"confirmedVulns"`
	BySeverity     map[string]int `json:"bySeverity"`
	SafeToDeploy   bool           `json:"safeToDeploy"`
}

type statusBody struct {
	HeadNumber uint64 `json:"headNumber"`
	HeadID     string `json:"headId"`
}

type blocksBody struct {
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`
	Head   uint64 `json:"head"`
	Blocks []struct {
		Number   uint64   `json:"number"`
		TxHashes []string `json:"txHashes"`
	} `json:"blocks"`
}

type sraPageBody struct {
	Total      int    `json:"total"`
	NextCursor string `json:"nextCursor"`
	SRAs       []struct {
		ID             string `json:"id"`
		ConfirmedVulns uint64 `json:"confirmedVulns"`
	} `json:"sras"`
}

// waitConfirmed polls /v1/receipt/{hash} on the observer until the
// transaction has want confirmations there. It looks only when the
// observer's pump has hinted a head that could satisfy it: the first look
// after head seen+1, later looks after as many further heads as
// confirmations are still missing.
func waitConfirmed(ctx context.Context, cl *client, c *cluster, hash string, want, seen uint64) (receiptBody, error) {
	need := seen + 1
	url := c.observer.url + "/v1/receipt/" + hash
	for {
		head, err := c.hint.wait(ctx, need)
		if err != nil {
			return receiptBody{}, fmt.Errorf("waiting for head %d: %w", need, err)
		}
		var r receiptBody
		status, err := cl.getJSON(ctx, url, &r)
		switch {
		case err != nil:
			return r, err
		case status == http.StatusNotFound:
			need = head + 1
		case status != http.StatusOK:
			return r, fmt.Errorf("GET %s: http %d", url, status)
		case r.Confirmations >= want:
			return r, nil
		default:
			need = head + want - r.Confirmations
		}
	}
}
