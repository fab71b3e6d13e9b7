package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"virtualwire/campaign"
)

// Client talks to a vwcampaignd daemon. The zero value is not usable:
// construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the daemon at addr, which may be a
// bare host:port or a full http:// base URL.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), http: http.DefaultClient}
}

// do issues a request and decodes either the JSON body into out or the
// daemon's {"error": ...} envelope into an error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("service: decode %s %s response: %w", method, path, err)
	}
	return nil
}

func (c *Client) send(ctx context.Context, method, path string, body any, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("service: marshal request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// decodeAPIError turns a non-2xx response into an error carrying the
// daemon's message.
func decodeAPIError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var ae apiError
	if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("service: %s (HTTP %d)", ae.Error, resp.StatusCode)
	}
	return fmt.Errorf("service: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// Submit sends a raw spec (the bytes of a -spec file) for tenant and
// returns the accepted job's status. The daemon validates the spec with
// the same versioned ParseSpec the CLI uses, so a spec that runs
// in-process submits unchanged.
func (c *Client) Submit(ctx context.Context, tenant string, rawSpec []byte, workers int) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", SubmitRequest{
		Tenant:  tenant,
		Workers: workers,
		Spec:    json.RawMessage(rawSpec),
	}, &st)
	return st, err
}

// Status fetches one job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+url.PathEscape(id), nil, &st)
	return st, err
}

// List fetches every job's status; tenant filters when non-empty.
func (c *Client) List(ctx context.Context, tenant string) ([]JobStatus, error) {
	path := "/v1/campaigns"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out.Jobs, err
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns/"+url.PathEscape(id)+"/cancel", nil, &st)
	return st, err
}

// StreamRecords follows the job's record stream until it is complete
// (or ctx ends). Each journal line is written to sink verbatim — byte
// for byte what an in-process run would have written — and, when
// onRecord is non-nil, also decoded and handed over for live progress. A
// whole line that is not a record ends the stream with an error, after
// the line has reached the sink; a last line without its newline is a
// write the daemon did not finish, and is written but not decoded.
func (c *Client) StreamRecords(ctx context.Context, id string, sink io.Writer, onRecord func(campaign.RunRecord)) error {
	resp, err := c.send(ctx, http.MethodGet, "/v1/campaigns/"+url.PathEscape(id)+"/records", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r := bufio.NewReaderSize(resp.Body, lineBufSize)
	var long []byte
	var dec campaign.RecordDecoder
	for n := 1; ; n++ {
		line, err := readLine(r, &long)
		if len(line) > 0 {
			if sink != nil {
				if _, werr := sink.Write(line); werr != nil {
					return fmt.Errorf("service: write record: %w", werr)
				}
			}
			if onRecord != nil && line[len(line)-1] == '\n' {
				var rec campaign.RunRecord
				if derr := dec.Decode(line[:len(line)-1], &rec); derr != nil {
					return fmt.Errorf("service: record stream: line %d does not decode: %w", n, derr)
				}
				onRecord(rec)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("service: record stream: %w", err)
		}
	}
}

// Summary fetches the job's summary; wait blocks until the job is
// terminal. A nil summary with a nil error means the job is still
// running (only possible with wait=false).
func (c *Client) Summary(ctx context.Context, id string, wait bool) (*campaign.Summary, error) {
	path := "/v1/campaigns/" + url.PathEscape(id) + "/summary"
	if wait {
		path += "?wait=1"
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		return nil, nil
	}
	var sum campaign.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return nil, fmt.Errorf("service: decode summary: %w", err)
	}
	return &sum, nil
}
