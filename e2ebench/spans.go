package main

import (
	"encoding/json"
	"io"
	"slices"
)

// chain lists the traced layers from the outside in. A request's spans
// nest along it; layers a workload does not use are simply absent.
var chain = []string{"client", "gateway", "attempt", "serve", "engine"}

// spanIndex groups one run's measured spans by layer and request ID.
type spanIndex struct {
	by map[string]map[int64][]span
	// requests are the measured request (or frame) IDs, in trace order.
	requests []int64
	// engine holds every measured engine call once.
	engine []span
	// sessions counts measured stream sessions at the gateway.
	sessions int
}

// indexSpans keeps the spans of requests with IDs above firstID (the
// warm-up's IDs are below it). Stream frames become per-frame gateway
// and serve spans, reconstructed from each session's frame log.
func indexSpans(tr *tracer, firstID int64) *spanIndex {
	ix := &spanIndex{by: map[string]map[int64][]span{}}
	add := func(s span) {
		m := ix.by[s.name]
		if m == nil {
			m = map[int64][]span{}
			ix.by[s.name] = m
		}
		m[s.id] = append(m[s.id], s)
	}
	isSession := func(id int64) bool { _, ok := tr.frames[id]; return ok }
	for _, s := range tr.spans {
		if s.id <= firstID {
			continue
		}
		switch {
		case s.name == "engine":
			ix.engine = append(ix.engine, s)
			for _, id := range s.ids {
				c := s
				c.id = int64(id)
				add(c)
			}
		case s.name == "gateway.session":
			ix.sessions++
		case s.name == "client" && !isSession(s.id):
			ix.requests = append(ix.requests, s.id)
			add(s)
		case !isSession(s.id) || s.name == "attempt":
			add(s)
		}
	}
	for _, fl := range tr.sessions {
		if fl.session <= firstID {
			continue
		}
		for _, s := range fl.frameSpans(tr.frames[fl.session]) {
			add(s)
		}
	}
	return ix
}

// frameSpans turns a session's frame log into one span per answered
// frame: from the first body read after the previous event (or the
// session start) to the frame's own event.
func (fl *frameLog) frameSpans(ids []int64) []span {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	var out []span
	prev, r := fl.start, 0
	for k, end := range fl.events {
		for r < len(fl.reads) && fl.reads[r] <= prev {
			r++
		}
		if r == len(fl.reads) || k >= len(ids) {
			break
		}
		out = append(out, span{name: fl.layer, id: ids[k], start: fl.reads[r], end: end})
		prev = end
	}
	return out
}

func intervals(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = interval{s.start, s.end}
	}
	return out
}

// breakdown is the per-request split of the traced client latency.
type breakdown struct {
	rtt       []float64 // client span, µs
	overhead  []float64 // client span minus the outermost server span, µs
	gwSelf    []float64 // gateway span minus the union of its children, µs
	hop       []float64 // attempt span minus the backend handler span, µs
	serveSelf []float64 // serve span minus the engine span, µs
	queueWait []float64 // serve span start to engine call start, µs
	frameSrv  []float64 // stream frame time at the backend, µs
	// coverage is Σ self time along each request's blocking path over
	// Σ client time: how much of the client latency the layers explain.
	coverage float64
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// breakdown computes the self times of every measured request. A span's
// children are the spans of the next layer down that the request
// reached; the blocking path descends, at each layer, into the nested
// child that ended last — the one its parent waited for.
func (ix *spanIndex) breakdown(stream bool) breakdown {
	var b breakdown
	var pathSum, rttSum int64
	for _, id := range ix.requests {
		var levels [][]span
		for _, name := range chain {
			if ss := ix.by[name][id]; len(ss) > 0 {
				levels = append(levels, ss)
			}
		}
		if len(levels) == 0 || levels[0][0].name != "client" {
			continue
		}
		client := levels[0][0]
		b.rtt = append(b.rtt, us(client.end-client.start))
		rttSum += client.end - client.start
		node := &client
		for li, ss := range levels {
			var kids []span
			if li+1 < len(levels) {
				kids = levels[li+1]
			}
			for _, s := range ss {
				self := us(selfTime(s.start, s.end, intervals(kids)))
				switch s.name {
				case "client":
					b.overhead = append(b.overhead, self)
				case "gateway":
					b.gwSelf = append(b.gwSelf, self)
				case "attempt":
					b.hop = append(b.hop, self)
				case "serve":
					b.serveSelf = append(b.serveSelf, self)
					if stream {
						b.frameSrv = append(b.frameSrv, us(s.end-s.start))
					}
					for _, e := range kids {
						if e.start >= s.start && e.end <= s.end {
							b.queueWait = append(b.queueWait, us(e.start-s.start))
							break
						}
					}
				}
			}
			if node == nil {
				continue
			}
			pathSum += selfTime(node.start, node.end, intervals(kids))
			var next *span
			for i := range kids {
				k := &kids[i]
				if k.start >= node.start && k.end <= node.end && (next == nil || k.end > next.end) {
					next = k
				}
			}
			node = next
		}
	}
	if rttSum > 0 {
		b.coverage = float64(pathSum) / float64(rttSum)
	}
	return b
}

// writeSpans dumps the raw spans as JSON lines (name, id, start and end
// in ns since the run's epoch, parent, and the sample IDs of engine
// calls). A span's parent is the index of the span one layer up with
// the same request ID that encloses it, or -1.
func writeSpans(w io.Writer, tr *tracer) error {
	type key struct {
		name string
		id   int64
	}
	pos := map[key][]int{}
	for i, s := range tr.spans {
		pos[key{s.name, s.id}] = append(pos[key{s.name, s.id}], i)
	}
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		parent := -1
		if li := slices.Index(chain, s.name); li > 0 {
			for up := li - 1; up >= 0 && parent < 0; up-- {
				for _, j := range pos[key{chain[up], s.id}] {
					if p := tr.spans[j]; p.start <= s.start && s.end <= p.end {
						parent = j
						break
					}
				}
			}
		}
		rec := struct {
			Name   string `json:"name"`
			ID     int64  `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			IDs    []int  `json:"ids,omitempty"`
		}{s.name, s.id, s.start, s.end, parent, s.ids}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
