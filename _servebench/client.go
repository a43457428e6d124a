package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: each waits for its spec's
// terminal status before submitting the next.
const clients = 2

// Adaptive polling for queued specs: the first poll comes soon after the
// 202 and the gap grows geometrically, so detection adds at most about a
// third of a spec's own latency (and never more than pollMax) instead of
// rounding every latency up to a fixed tick.
const (
	pollFirst  = 250 * time.Microsecond
	pollGrowth = 1.5
	pollMax    = 2 * time.Millisecond
)

// sample is one request as the client saw it.
type sample struct {
	Hash  string  `json:"hash"`
	Start int64   `json:"start_ns"` // wall clock, unix ns
	End   int64   `json:"end_ns"`   // when the client saw a terminal status
	MS    float64 `json:"ms"`
	Polls int     `json:"polls"`
	Dedup string  `json:"dedup,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// submitReply is the POST /v1/specs body.
type submitReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Dedup  string `json:"dedup"`
}

// drive submits every request of the round from two closed-loop clients
// and returns the per-request samples in request order.
func drive(ctx context.Context, hc *http.Client, base string, reqs []request) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = doOne(ctx, hc, base, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func doOne(ctx context.Context, hc *http.Client, base string, r request) sample {
	s := sample{Hash: r.hash}
	start := time.Now()
	s.Start = start.UnixNano()
	finish := func(err error) sample {
		end := time.Now()
		s.End = end.UnixNano()
		s.MS = float64(end.Sub(start).Nanoseconds()) / 1e6
		if err != nil {
			s.Err = err.Error()
		}
		return s
	}
	var rep submitReply
	code, err := postJSON(ctx, hc, base+"/v1/specs", r.body, &rep)
	if err != nil {
		return finish(err)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return finish(fmt.Errorf("POST: HTTP %d", code))
	}
	if rep.ID != r.hash {
		return finish(fmt.Errorf("POST answered id %s, want %s", rep.ID, r.hash))
	}
	s.Dedup = rep.Dedup
	status := rep.Status
	wait := pollFirst
	for status == "queued" || status == "running" {
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return finish(ctx.Err())
		case <-t.C:
		}
		if wait = time.Duration(float64(wait) * pollGrowth); wait > pollMax {
			wait = pollMax
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		s.Polls++
		if err := getJSON(ctx, hc, base+"/v1/specs/"+r.hash, &st); err != nil {
			return finish(err)
		}
		status = st.Status
		if st.Error != "" {
			return finish(fmt.Errorf("spec %s: %s", status, st.Error))
		}
	}
	if status != "done" {
		return finish(fmt.Errorf("spec ended %s", status))
	}
	return finish(nil)
}

func postJSON(ctx context.Context, hc *http.Client, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decode reply: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// newHTTPClient keeps keep-alive connections for the clients and the
// harness's own requests.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}
