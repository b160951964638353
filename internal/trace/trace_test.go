package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestAddGrowsHorizon(t *testing.T) {
	var tr Trace
	tr.Add("a", 0, 5)
	if tr.Horizon != 6 {
		t.Fatalf("horizon = %d, want 6", tr.Horizon)
	}
	tr.Add("a", 1, 2)
	if tr.Horizon != 6 {
		t.Fatal("horizon must not shrink")
	}
}

func TestGroupsDeterministicOrder(t *testing.T) {
	var tr Trace
	tr.Add("zeta", 0, 0)
	tr.Add("alpha", 0, 0)
	g := tr.Groups()
	if len(g) != 2 || g[0] != "alpha" || g[1] != "zeta" {
		t.Fatalf("groups = %v", g)
	}
}

func TestCountAndSize(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"a": 10}}
	tr.Add("a", 3, 1)
	tr.Add("a", 4, 2)
	tr.Add("b", 7, 1)
	if tr.Count("a") != 2 || tr.Count("b") != 1 {
		t.Fatal("counts wrong")
	}
	if tr.size("a") != 10 {
		t.Fatal("explicit size ignored")
	}
	if tr.size("b") != 8 { // inferred: max index 7 + 1
		t.Fatalf("inferred size = %d, want 8", tr.size("b"))
	}
}

func TestRasterRendering(t *testing.T) {
	var tr Trace
	tr.Add("layer", 0, 0)
	tr.Add("layer", 2, 4)
	out := tr.Raster("layer", 10, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 neuron rows
		t.Fatalf("raster rows = %d:\n%s", len(lines), out)
	}
	if lines[1][0] != '|' {
		t.Fatalf("neuron 0 spike missing:\n%s", out)
	}
	if lines[3][4] != '|' {
		t.Fatalf("neuron 2 spike at t=4 missing:\n%s", out)
	}
	if !strings.Contains(lines[0], "2 spikes") {
		t.Fatalf("header wrong: %s", lines[0])
	}
}

func TestRasterSubsampling(t *testing.T) {
	var tr Trace
	for i := 0; i < 100; i++ {
		tr.Add("big", i, i)
	}
	out := tr.Raster("big", 10, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines)-1 > 10 {
		t.Fatalf("raster not row-subsampled: %d rows", len(lines)-1)
	}
	if len(lines[1]) > 20 {
		t.Fatalf("raster not column-binned: %d cols", len(lines[1]))
	}
}

func TestRasterEmptyGroup(t *testing.T) {
	var tr Trace
	if !strings.Contains(tr.Raster("none", 5, 5), "no spikes") {
		t.Fatal("empty raster should say so")
	}
}

func TestWriteVCDStructure(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"conv-1": 3}}
	tr.Add("conv-1", 1, 2)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "1ns", 16); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module conv_1 $end", // sanitized name
		"$var wire 1",
		"$enddefinitions $end",
		"#0",
		"#2", // spike time
		"#3", // pulse low
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
	// one high and one low transition for the spike
	if strings.Count(out, "\n1") != 1 {
		t.Fatalf("expected exactly one rising edge:\n%s", out)
	}
}

func TestWriteVCDTruncatesWires(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"huge": 1000}}
	tr.Add("huge", 999, 1) // beyond the wire cap: silently dropped
	tr.Add("huge", 1, 1)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "$var wire"); got != 8 {
		t.Fatalf("wire count = %d, want capped 8", got)
	}
	if strings.Count(out, "\n1") != 1 {
		t.Fatal("truncated neuron's spike should be dropped")
	}
}

func TestVCDUniqueIdentifiers(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"a": 200}}
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 200); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "$var wire 1 ") {
			parts := strings.Fields(line)
			id := parts[3]
			if ids[id] {
				t.Fatalf("duplicate VCD identifier %q", id)
			}
			ids[id] = true
		}
	}
	if len(ids) != 200 {
		t.Fatalf("got %d identifiers", len(ids))
	}
}

func TestFromResultEndToEnd(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := m.InferOne(fx.X.Data[:256], core.RunConfig{EarlyFire: true, CollectEvents: true}, core.InferOpts{})
	tr := FromResult(m, r)
	if tr.Count("Input") != r.Spikes[0] {
		t.Fatalf("input events %d != spikes %d", tr.Count("Input"), r.Spikes[0])
	}
	total := 0
	for _, g := range tr.Groups() {
		total += tr.Count(g)
	}
	if total != r.TotalSpikes {
		t.Fatalf("trace has %d events, inference reported %d spikes", total, r.TotalSpikes)
	}
	if tr.Horizon < r.Latency {
		t.Fatalf("horizon %d below latency %d", tr.Horizon, r.Latency)
	}
	// VCD export of a real trace must succeed
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "1us", 32); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty VCD")
	}
	// raster of the first conv layer shows activity
	if !strings.Contains(tr.Raster("Conv1", 20, 60), "|") {
		t.Fatal("raster shows no spikes for an active layer")
	}
}

// Distinct group names must never share one VCD module identifier:
// "conv.1" and "conv_1" both sanitize to "conv_1", which silently merges
// two scopes in the dump. The writer must disambiguate on collision.
func TestWriteVCDScopeCollision(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"conv.1": 1, "conv_1": 1}}
	tr.Add("conv.1", 0, 1)
	tr.Add("conv_1", 0, 2)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 4); err != nil {
		t.Fatal(err)
	}
	scopes := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "$scope module ") {
			name := strings.Fields(line)[2]
			if scopes[name] {
				t.Fatalf("duplicate $scope name %q:\n%s", name, buf.String())
			}
			scopes[name] = true
		}
	}
	if len(scopes) != 2 {
		t.Fatalf("want 2 distinct scopes, got %d", len(scopes))
	}
}

// VCD identifiers must not start with a digit; a group like "3x3" needs
// a prefix, not a verbatim copy.
func TestWriteVCDLeadingDigit(t *testing.T) {
	var tr Trace
	tr.Add("3x3", 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 4); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "$scope module ") {
			name := strings.Fields(line)[2]
			if name[0] >= '0' && name[0] <= '9' {
				t.Fatalf("scope %q starts with a digit", name)
			}
		}
	}
}

// A negative event time must not surface as a "#-1" timestamp (VCD
// viewers reject negative times); Add clamps it to step 0.
func TestAddNegativeTimeClamped(t *testing.T) {
	var tr Trace
	tr.Add("g", 0, -1)
	if tr.Horizon < 1 {
		t.Fatalf("horizon = %d, want clamped event to grow it", tr.Horizon)
	}
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 4); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#-") {
		t.Fatalf("negative timestamp leaked into VCD:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "\n1") {
		t.Fatal("clamped spike should still appear")
	}
}

// Back-to-back spikes on one wire put a fall (closing the first pulse)
// and a rise (opening the second) at the same timestamp; the fall must
// be emitted first or a viewer, keeping the last value per timestamp,
// erases the second pulse. Events are added out of time order to ensure
// the ordering comes from the sort, not from insertion order.
func TestWriteVCDBackToBackSpikes(t *testing.T) {
	tr := Trace{GroupSizes: map[string]int{"g": 1}}
	tr.Add("g", 0, 5) // second spike added first
	tr.Add("g", 0, 4)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "", 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// locate the #5 timestamp block: it must read fall then rise
	at5 := strings.Index(out, "\n#5\n")
	if at5 < 0 {
		t.Fatalf("no #5 timestamp:\n%s", out)
	}
	block := out[at5+4:]
	if end := strings.Index(block, "#"); end >= 0 {
		block = block[:end]
	}
	lines := strings.Split(strings.TrimSpace(block), "\n")
	if len(lines) != 2 || lines[0][0] != '0' || lines[1][0] != '1' {
		t.Fatalf("at #5 want fall then rise, got %q", lines)
	}
	if strings.Count(out, "\n1") != 2 {
		t.Fatalf("want both pulses to survive:\n%s", out)
	}
}
