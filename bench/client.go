package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// requestTimeout bounds every HTTP exchange; an exchange that exceeds
// it is a failure and the connection is re-dialled.
const requestTimeout = 5 * time.Second

// requestIDHeader joins the client's span to the wrapping handler's
// span on the traced run.
const requestIDHeader = "X-Bench-Request"

// conn is one keep-alive HTTP/1.1 connection driven by exactly one
// goroutine: the request is written and the reply read on the caller's
// goroutine, so the load generator adds no scheduler hops of its own
// (net/http's Transport runs two extra goroutines per connection).
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte       // scratch: the serialized request
	body bytes.Buffer // the last reply's body
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole reply into c.body. reqID,
// when non-zero, is sent as the request-id header.
func (c *conn) do(method, path string, payload []byte, reqID uint64) (int, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: revmaxd\r\n"...)
	if reqID != 0 {
		b = append(b, requestIDHeader+": "...)
		b = strconv.AppendUint(b, reqID, 10)
		b = append(b, "\r\n"...)
	}
	if payload != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, payload...)
	c.req = b

	status, err := c.exchange()
	if err != nil {
		c.close()
	}
	return status, err
}

func (c *conn) exchange() (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, nil
}

// getJSON is a control-plane read: GET path, require 200, decode.
func (c *conn) getJSON(path string, v any) error {
	status, err := c.do("GET", path, nil, 0)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(c.body.Bytes()))
	}
	if err := json.Unmarshal(c.body.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	Users          int     `json:"users"`
	Items          int     `json:"items"`
	Horizon        int     `json:"horizon"`
	K              int     `json:"k"`
	Now            int     `json:"now"`
	PlanRevenue    float64 `json:"plan_revenue"`
	PlannedTriples int     `json:"planned_triples"`
	Replans        int64   `json:"replans"`
	Adoptions      int64   `json:"adoptions"`
	Exposures      int64   `json:"exposures"`
	WALNextLSN     uint64  `json:"wal_next_lsn"`
}

func (c *conn) stats() (daemonStats, error) {
	var st daemonStats
	err := c.getJSON("/v1/stats", &st)
	return st, err
}

// samples are raw per-operation timings in microseconds. They are kept
// whole and sorted for quantiles: the daemon's own histogram buckets
// are coarser than the regression bounds.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of a sorted sample; 0 when
// empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timed are samples that remember when they were taken, so that a
// quantile can be taken per window of the steady phase.
type timed struct {
	at  []time.Time
	lat samples
}

func (t *timed) add(at time.Time, d time.Duration) {
	t.at = append(t.at, at)
	t.lat = append(t.lat, micros(d))
}

func (t *timed) len() int { return len(t.lat) }

// windowed is stat of each of the first n consecutive windows since
// begin; a window without samples is left out.
func (t *timed) windowed(stat func(samples) float64, begin time.Time, window time.Duration, n int) []float64 {
	byWindow := make([]samples, n)
	for i, at := range t.at {
		if w := int(at.Sub(begin) / window); w >= 0 && w < n {
			byWindow[w] = append(byWindow[w], t.lat[i])
		}
	}
	var out []float64
	for _, s := range byWindow {
		if len(s) > 0 {
			out = append(out, stat(s))
		}
	}
	return out
}

func (s samples) p50() float64 { return s.sorted().quantile(0.50) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartile is the k-th quartile of v by nearest rank: 0 the smallest,
// 1 the lower quartile, 3 the upper.
func quartile(v []float64, k int) float64 {
	return samples(v).sorted().quantile(float64(k) / 4)
}

func median(v []float64) float64 {
	s := samples(v).sorted()
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
