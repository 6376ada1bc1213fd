package cluster

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// TraceSpan is one root span in the merged cluster trace view, labeled
// with the tracer it came from: "coord" for the coordinator, the shard
// index for an engine.
type TraceSpan struct {
	Shard string `json:"shard"`
	obs.SpanData
}

// TraceGroup collects every retained root span sharing one trace ID —
// a coordinated barrier's coordinator span plus each shard's install
// span, or an X-Trace-Id request's spans across the fleet — into a
// single timeline.
type TraceGroup struct {
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// Traces merges the coordinator's and every shard's span rings into
// trace-ID-keyed groups, ordered by each trace's earliest span start.
// Within a group, coordinator spans sort before shard spans and shards
// sort by index; each tracer's spans keep their ring order (oldest
// first).
func (c *Cluster) Traces() []TraceGroup {
	type source struct {
		label string
		spans []obs.SpanData
	}
	srcs := []source{{"coord", c.tracer.Traces()}}
	c.engMu.RLock()
	for k, e := range c.engines {
		srcs = append(srcs, source{strconv.Itoa(k), e.Tracer().Traces()})
	}
	c.engMu.RUnlock()

	groups := make(map[string]*TraceGroup)
	var order []string
	for _, src := range srcs {
		for _, d := range src.spans {
			key := d.TraceID
			if key == "" {
				// Pre-ID span (a tracer populated before SetOrigin) —
				// keep it visible under its own span ID.
				key = d.SpanID
			}
			g := groups[key]
			if g == nil {
				g = &TraceGroup{TraceID: key}
				groups[key] = g
				order = append(order, key)
			}
			g.Spans = append(g.Spans, TraceSpan{Shard: src.label, SpanData: d})
		}
	}
	out := make([]TraceGroup, 0, len(order))
	for _, key := range order {
		out = append(out, *groups[key])
	}
	// Sources were appended coordinator-first, shards in index order,
	// so within-group order is already as documented; order groups by
	// their earliest span start for a chronological timeline.
	sort.SliceStable(out, func(i, j int) bool {
		return earliest(out[i]).Before(earliest(out[j]))
	})
	return out
}

// earliest returns the start time of a group's oldest span.
func earliest(g TraceGroup) time.Time {
	t0 := g.Spans[0].Start
	for _, s := range g.Spans[1:] {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	return t0
}

// clusterTraceDump is the JSON envelope of the cluster's /debug/traces:
// one document, trace-ID-keyed groups of shard-labeled spans.
type clusterTraceDump struct {
	Enabled bool         `json:"enabled"`
	Shards  int          `json:"shards"`
	Traces  []TraceGroup `json:"traces"`
}

// WriteTraces renders the merged trace view as a single JSON document.
func (c *Cluster) WriteTraces(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(clusterTraceDump{
		Enabled: c.tracer.Enabled(),
		Shards:  c.n,
		Traces:  c.Traces(),
	})
}
