package main

import (
	"bytes"
	"encoding/json"
	"io"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wire"
)

// codecBudget is how long each codec is timed standalone.
const codecBudget = 150 * time.Millisecond

// nsPerOp runs pass (which performs ops operations) repeatedly for
// codecBudget and returns the median pass's time per operation.
func nsPerOp(ops int, pass func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < codecBudget {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// timeCodecs times the codecs a workload's traffic passes through,
// standalone, on the workload's own request bodies and reference
// responses. Metrics of codecs the workload does not use stay 0.
func timeCodecs(w *workload, set inputSet, b bodies, refs []outcome, stageSpikes [][]int) map[string]float64 {
	m := map[string]float64{}
	n := len(set.x)
	inLen := len(set.x[0])
	reqs := make([][]byte, n)
	size := 0
	for i := range reqs {
		reqs[i] = b.body(nil, i, int64(i+1))
		size += len(reqs[i])
	}
	switch {
	case w.stream:
		var all []byte
		for i, r := range reqs {
			if i > 0 {
				all = append(all, '\n')
			}
			all = append(all, r...)
		}
		var f stream.Frame
		m["stream.decode_frame_ns"] = nsPerOp(n, func() {
			dec := stream.NewDecoder(bytes.NewReader(all), "application/json")
			for i := 0; i < n; i++ {
				if err := dec.Next(&f, inLen); err != nil {
					panic(err) // the benchmark's own frames always decode
				}
			}
		})
		enc := stream.NewEncoder(io.Discard, stream.FormatNDJSON)
		evs := make([]stream.Event, n)
		for i, r := range refs {
			evs[i] = stream.Event{Kind: stream.KindFrame, Seq: uint32(i + 1), Pred: r.pred, LatencySteps: r.latency,
				TotalSpikes: r.spikes, EarlyExit: r.early, EventsSaved: r.saved, StageSpikes: stageSpikes[i]}
		}
		m["stream.encode_event_ns"] = nsPerOp(n, func() {
			for i := range evs {
				_ = enc.Encode(&evs[i])
			}
		})
	case w.binary:
		var buf []byte
		m["wire.encode_ns"] = nsPerOp(n, func() {
			for i, in := range set.x {
				buf = wire.AppendRequest(buf[:0], wire.Request{Lane: wire.LaneF32, Sample: i + 1, Label: set.labels[i]}, in)
			}
		})
		var dst []float64
		m["wire.decode_req_ns"] = nsPerOp(n, func() {
			for _, r := range reqs {
				var err error
				if _, dst, err = wire.DecodeRequest(r, dst, inLen); err != nil {
					panic(err)
				}
			}
		})
		resps := make([][]byte, n)
		for i, r := range refs {
			resps[i] = wire.AppendResponse(nil, wire.Response{Pred: r.pred, LatencySteps: r.latency,
				TotalSpikes: uint32(r.spikes), EventsSaved: uint32(r.saved), EarlyExit: r.early})
		}
		m["wire.decode_resp_ns"] = nsPerOp(n, func() {
			for _, r := range resps {
				if _, err := wire.DecodeResponse(r); err != nil {
					panic(err)
				}
			}
		})
		m["wire.req_bytes"] = float64(size) / float64(n)
	default:
		// serve decodes into a pooled InferRequest whose Input keeps its
		// capacity; this mirrors that target.
		var sv, lv int
		req := serve.InferRequest{Sample: &sv, Label: &lv}
		m["json.decode_req_ns"] = nsPerOp(n, func() {
			for _, r := range reqs {
				req.Input = req.Input[:0]
				if err := json.Unmarshal(r, &req); err != nil {
					panic(err)
				}
			}
		})
		resps := make([]serve.InferResponse, n)
		for i, r := range refs {
			resps[i] = serve.InferResponse{Pred: r.pred, LatencySteps: r.latency, TotalSpikes: r.spikes,
				WallMs: 1.25, EarlyExit: r.early, EventsSaved: r.saved}
		}
		m["json.encode_resp_ns"] = nsPerOp(n, func() {
			for i := range resps {
				if _, err := json.Marshal(&resps[i]); err != nil {
					panic(err)
				}
			}
		})
		m["json.req_bytes"] = float64(size) / float64(n)
	}
	return m
}
