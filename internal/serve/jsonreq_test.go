package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// decodeBoth decodes body with the one-pass decoder and with
// json.Unmarshal into the server's decode-target shape (Sample/Label
// pointing at -1 sentinels), returning whether the fast path accepted
// and the two results (the reference is zero-valued when json.Unmarshal
// fails, with err set).
func decodeBoth(body []byte) (ok bool, fast, ref InferRequest, err error) {
	fs, fl, rs, rl := -1, -1, -1, -1
	fast = InferRequest{Sample: &fs, Label: &fl}
	ok = decodeInferJSON(body, &fast)
	ref = InferRequest{Sample: &rs, Label: &rl}
	err = json.Unmarshal(body, &ref)
	return ok, fast, ref, err
}

// sameDecode reports how two decodes differ ("" when they agree): every
// scalar equal, Input equal bit for bit.
func sameDecode(got, want InferRequest) string {
	switch {
	case (got.Sample == nil) != (want.Sample == nil) || (got.Sample != nil && *got.Sample != *want.Sample):
		return "sample"
	case (got.Label == nil) != (want.Label == nil) || (got.Label != nil && *got.Label != *want.Label):
		return "label"
	case got.TimeoutMs != want.TimeoutMs:
		return "timeout_ms"
	case got.Mode != want.Mode:
		return "mode"
	case len(got.Input) != len(want.Input):
		return "input length"
	}
	for i := range got.Input {
		if math.Float64bits(got.Input[i]) != math.Float64bits(want.Input[i]) {
			return "input value"
		}
	}
	return ""
}

// FuzzInferJSON is the fast path's differential oracle: whenever the
// one-pass decoder accepts a body, json.Unmarshal must accept it too
// and decode the same request, Input bit for bit. Bodies the fast path
// declines are json.Unmarshal's alone, so they assert nothing. The seed
// corpus lives in testdata/fuzz/FuzzInferJSON.
func FuzzInferJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		ok, fast, ref, err := decodeBoth(body)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("fast path accepted %q, json.Unmarshal: %v", body, err)
		}
		if d := sameDecode(fast, ref); d != "" {
			t.Fatalf("fast path and json.Unmarshal differ on %s for %q", d, body)
		}
	})
}

// The fast path takes every canonical body — any key order, whitespace,
// the full number grammar — and declines everything outside the subset,
// which json.Unmarshal then decides.
func TestDecodeInferJSONSubset(t *testing.T) {
	canonical := []string{
		`{}`,
		` { } `,
		`{"input":[]}`,
		`{"input":[0.5,1,-2]}`,
		`{"input":[1,2],"sample":3,"label":4,"timeout_ms":50,"mode":"latency"}`,
		`{"mode":"throughput","timeout_ms":0,"label":-4,"sample":-0,"input":[1]}`,
		`{"sample":7,"input":[1],"label":2}`,
		`{"label":2,"sample":7,"input":[1]}`,
		"\t{\r\n\"input\" :\n[ 1 , 2.5e-3 ,-0.0,1E+2 ] ,\"sample\": 1 }\n",
		`{"input":[0.0039215686274509803,0.99607843137254903,1e-400,123456789012345678901234567890]}`,
		`{"mode":""}`,
		`{"mode":"fast"}`,
		`{"sample":999999999999999999}`,
	}
	for _, body := range canonical {
		ok, fast, ref, err := decodeBoth([]byte(body))
		if !ok {
			t.Errorf("fast path declined canonical %q", body)
			continue
		}
		if err != nil {
			t.Errorf("%q: json.Unmarshal: %v", body, err)
			continue
		}
		if d := sameDecode(fast, ref); d != "" {
			t.Errorf("%q: decoders differ on %s", body, d)
		}
	}
	declined := []string{
		``,
		`null`,
		`[]`,
		`{"input":null}`,
		`{"sample":null}`,
		`{"Input":[1]}`,
		`{"inp\u0075t":[1]}`,
		`{"input":[1],"input":[2]}`,
		`{"input":[1],"extra":1}`,
		`{"input":[1e400]}`,
		`{"input":[01]}`,
		`{"input":[.5]}`,
		`{"input":[1.]}`,
		`{"input":[1e]}`,
		`{"input":[+1]}`,
		`{"input":[1,]}`,
		`{"input":[1,"x"]}`,
		`{"input":[1]} x`,
		`{"input":[1]}{}`,
		`{"input":[1],}`,
		`{"sample":1.5}`,
		`{"sample":1e2}`,
		`{"sample":01}`,
		`{"sample":1000000000000000000}`,
		`{"sample":"1"}`,
		`{"mode":"l\u0061tency"}`,
		"{\"mode\":\"caf\xc3\xa9\"}",
		`{"mode":1}`,
		`{"input":[1]`,
	}
	for _, body := range declined {
		if ok, _, _, _ := decodeBoth([]byte(body)); ok {
			t.Errorf("fast path accepted non-canonical %q", body)
		}
	}
}

// recordEngine answers from the input it was handed and remembers the
// last input and sample, so a test can see exactly what a body decoded
// to on its way through the handler.
type recordEngine struct {
	mu     sync.Mutex
	input  []float64
	sample int
}

func (e *recordEngine) InLen() int   { return 4 }
func (e *recordEngine) Classes() int { return 3 }

func (e *recordEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	e.mu.Lock()
	defer e.mu.Unlock()
	preds := make([]Prediction, len(inputs))
	for i, in := range inputs {
		e.input = append(e.input[:0], in...)
		e.sample = samples[i]
		preds[i] = Prediction{Pred: int(in[0]) % 3, Latency: int(in[1]), TotalSpikes: int(in[2])}
	}
	return preds
}

func (e *recordEngine) last() ([]float64, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.input...), e.sample
}

// JSON bodies keep the status, prediction and error text they had when
// json.Unmarshal decoded every body: canonical bodies answer exactly
// like their non-canonical spellings (which still take json.Unmarshal),
// and every rejected body keeps its 400 text byte for byte. The
// requests run one after another on one goroutine, so the pooled
// request object is reused and a body the fast path abandons halfway
// must leave nothing behind for the next.
func TestHandlerJSONDecodeMatchesUnmarshal(t *testing.T) {
	eng := &recordEngine{}
	g := NewRegistry(RegistryOptions{})
	t.Cleanup(g.Close)
	if _, err := g.Add("m", eng, Options{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	g.SetReady(true)
	h := g.Handler()

	type answer struct {
		code   int
		resp   InferResponse
		err    string
		input  []float64
		sample int
	}
	post := func(body string) answer {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		a := answer{code: rec.Code}
		if rec.Code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%q: status %d, undecodable error body %q", body, rec.Code, rec.Body.Bytes())
			}
			a.err = e.Error
			return a
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &a.resp); err != nil {
			t.Fatalf("%q: undecodable response %q", body, rec.Body.Bytes())
		}
		a.resp.WallMs = 0
		a.input, a.sample = eng.last()
		return a
	}
	same := func(what string, got, want answer) {
		t.Helper()
		if got.code != want.code || got.resp != want.resp || got.err != want.err || got.sample != want.sample ||
			len(got.input) != len(want.input) {
			t.Fatalf("%s: got %+v, want %+v", what, got, want)
		}
		for i := range got.input {
			if math.Float64bits(got.input[i]) != math.Float64bits(want.input[i]) {
				t.Fatalf("%s: input %v, want %v", what, got.input, want.input)
			}
		}
	}

	ok := func(in []float64, sample int) answer {
		return answer{code: http.StatusOK, resp: InferResponse{Pred: int(in[0]) % 3, LatencySteps: int(in[1]), TotalSpikes: int(in[2])},
			input: in, sample: sample}
	}
	bad := func(msg string) answer { return answer{code: http.StatusBadRequest, err: msg} }
	want := ok([]float64{2, 3, 4, 5}, -1)

	// Canonical bodies against the same request spelled so that the fast
	// path declines it (an unknown key), which json.Unmarshal ignores.
	for _, body := range []string{
		`{"input":[2,3,4,5]}`,
		`{"input":[0.0039215686274509803,7,1e2,-0.5],"sample":9,"label":1}`,
		`{"mode":"throughput","timeout_ms":5000,"label":2,"sample":4,"input":[5,1,2,3]}`,
		" {\n\t\"input\" : [ 1 , 2 , 3 , 4 ] , \"mode\" : \"latency\" }\r\n",
	} {
		fallback := strings.Replace(body, "{", `{"unknown":0,`, 1)
		same(body, post(body), post(fallback))
	}
	same("canonical", post(`{"input":[2,3,4,5]}`), want)

	// Non-canonical bodies keep the status and the text json.Unmarshal
	// and the validation after it gave them.
	for _, c := range []struct {
		body string
		want answer
	}{
		{`{"input":[1,2,3,4]}`, ok([]float64{1, 2, 3, 4}, -1)},
		{`{"Input":[4,5,6,7]}`, ok([]float64{4, 5, 6, 7}, -1)},
		{`{"inp\u0075t":[3,4,5,6]}`, ok([]float64{3, 4, 5, 6}, -1)},
		{`null`, bad("input length 0, model expects 4")},
		{`{"input":null}`, bad("input length 0, model expects 4")},
		{`{"input":[9,9,9,9],"sample":1,"input":[1,2,3,4],"sample":6}`, ok([]float64{1, 2, 3, 4}, 6)},
		{`{"input":[1e400,2,3,4]}`, bad("bad request body: json: cannot unmarshal number 1e400 into Go struct field InferRequest.input of type float64")},
		{`{"input":[1,2,3,4],"extra":[1,{"a":null}]}`, ok([]float64{1, 2, 3, 4}, -1)},
		{`{"input":[1,2,3,4],"mode":"fast"}`, bad(`mode "fast", want "latency" or "throughput"`)},
		{`{"input":[1,2,3,4],"mode":"latency"}`, ok([]float64{1, 2, 3, 4}, -1)},
		{`{"input":[1,2,3,4],"mode":"l\u0061tency"}`, ok([]float64{1, 2, 3, 4}, -1)},
		{`{"input":[1,2,3,4],"mode":"caf\u00e9"}`, bad(`mode "café", want "latency" or "throughput"`)},
		{`{"input":[1,2,3,4],"sample":1.5}`, bad("bad request body: json: cannot unmarshal number 1.5 into Go struct field InferRequest.sample of type int")},
		{`{"input":[01,2,3,4]}`, bad("bad request body: invalid character '1' after array element")},
		{`{"input":[1,2,3,4]} {}`, bad("bad request body: invalid character '{' after top-level value")},
		{`{"input":[1,2]}`, bad("input length 2, model expects 4")},
	} {
		same(c.body, post(c.body), c.want)
	}

	// A body the fast path abandons after writing sample and part of the
	// input, then a canonical body that sets neither: the second request
	// must see the sentinel sample and exactly its own input.
	for i := 0; i < 8; i++ {
		same("partial", post(`{"sample":5,"input":[1,"x"]}`),
			bad("bad request body: json: cannot unmarshal string into Go struct field InferRequest.input of type float64"))
		same("after partial", post(`{"input":[2,3,4,5]}`), want)
		same("partial timeout", post(`{"timeout_ms":5000,"sample":5,"mode":"latency","input":[7,7,7,7],"x":0}`), ok([]float64{7, 7, 7, 7}, 5))
		same("after partial timeout", post(`{"input":[2,3,4,5]}`), want)
	}
}
