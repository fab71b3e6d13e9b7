package virtualwire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"virtualwire/internal/core"
)

// The hand-rolled encoders on NodeReport, MetricsSummary and RunReport
// exist purely to keep reflection (and, for WriteJSON, the
// compact-then-indent double pass) out of the report path; their output
// must stay byte-identical to what encoding/json would produce on the
// same shape. The shadow types below carry the wire shape and tags but
// no Marshaler, so marshalling them exercises the reflected path.

type reflectedNodeReport struct {
	Name    string                        `json:"name"`
	Crashed bool                          `json:"crashed,omitempty"`
	Layers  map[string]map[string]float64 `json:"layers,omitempty"`
}

type reflectedMetricsSummary struct {
	Instruments    int                `json:"instruments"`
	SampledPoints  int                `json:"sampled_points,omitempty"`
	SampleInterval time.Duration      `json:"sample_interval_ns,omitempty"`
	Totals         map[string]float64 `json:"totals,omitempty"`
}

// reflectedRunReport is RunReport's wire shape: the same members in the
// same order under the same tags (TestWriteJSONMatchesEncoder compares
// them), with the shadows above for the members that have encoders.
type reflectedRunReport struct {
	Scenario    string                  `json:"scenario,omitempty"`
	Seed        int64                   `json:"seed"`
	Verdict     string                  `json:"verdict"`
	Result      Result                  `json:"result"`
	Passed      bool                    `json:"passed"`
	Duration    time.Duration           `json:"virtual_ns"`
	Events      uint64                  `json:"events"`
	Faults      []InjectedFault         `json:"faults,omitempty"`
	Errors      []ErrorReport           `json:"errors,omitempty"`
	Unreachable []string                `json:"unreachable,omitempty"`
	Nodes       []reflectedNodeReport   `json:"nodes,omitempty"`
	Metrics     reflectedMetricsSummary `json:"metrics"`
}

func (r RunReport) reflected() reflectedRunReport {
	out := reflectedRunReport{
		Scenario: r.Scenario, Seed: r.Seed, Verdict: r.Verdict, Result: r.Result,
		Passed: r.Passed, Duration: r.Duration, Events: r.Events,
		Faults: r.Faults, Errors: r.Errors, Unreachable: r.Unreachable,
		Metrics: r.Metrics.reflected(),
	}
	for _, n := range r.Nodes {
		out.Nodes = append(out.Nodes, n.reflected())
	}
	return out
}

func (m MetricsSummary) reflected() reflectedMetricsSummary {
	return reflectedMetricsSummary{m.Instruments, m.SampledPoints, m.SampleInterval, m.Totals}
}

func (n NodeReport) reflected() reflectedNodeReport {
	r := reflectedNodeReport{Name: n.Name, Crashed: n.Crashed}
	for _, l := range n.Layers {
		if r.Layers == nil {
			r.Layers = make(map[string]map[string]float64)
		}
		r.Layers[l.Layer] = make(map[string]float64)
		for i, name := range l.Names {
			r.Layers[l.Layer][name] = l.Values[i]
		}
	}
	return r
}

var nodeReportCases = []NodeReport{
	{},
	{Name: "node1"},
	{Name: "node1", Crashed: true},
	{
		Name: "node2",
		Layers: []LayerReport{
			{Layer: "engine", Names: []string{"actions_fired", "packets_intercepted"}, Values: []float64{0, 12}},
			{Layer: "nic", Names: []string{"frac", "tiny", "tx_bytes"}, Values: []float64{0.5, 1.234e-7, 1e21}},
			{Layer: "tcp"},
		},
	},
	// Characters that force the escaping fallback.
	{Name: `we"ird\<&>`, Layers: []LayerReport{
		{Layer: "läyer", Names: []string{"nâme"}, Values: []float64{1}},
	}},
}

func TestNodeReportMarshalMatchesReflect(t *testing.T) {
	for _, c := range nodeReportCases {
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want, err := json.Marshal(c.reflected())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("NodeReport %+v:\ngot  %s\nwant %s", c, got, want)
		}
		// Journaled records are decoded on resume: the encoding must
		// read back to the same report.
		var back NodeReport
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		again, _ := json.Marshal(back)
		if string(again) != string(got) {
			t.Errorf("round trip:\ngot  %s\nwant %s", again, got)
		}
	}
}

func TestMetricsSummaryMarshalMatchesReflect(t *testing.T) {
	cases := []MetricsSummary{
		{},
		{Instruments: 42},
		{Instruments: 42, SampledPoints: 7, SampleInterval: 5 * time.Millisecond},
		{
			Instruments: 3,
			Totals: map[string]float64{
				"tcp/segments_sent": 12345,
				"pool/puts":         0,
				"engine/drops":      4.5,
				"big/counter":       1e22,
				"small/counter":     3e-9,
			},
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want, err := json.Marshal(c.reflected())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("MetricsSummary %+v:\ngot  %s\nwant %s", c, got, want)
		}
	}
}

// TestWriteJSONMatchesEncoder holds the one report encoder to the bytes
// encoding/json produces for the same shape over every optional member,
// in both layouts: WriteJSON against json.Encoder with SetIndent (which
// is how it used to be implemented), json.Marshal and AppendJSON
// against json.Marshal of the shadow.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	// appendJSON names each member by hand: a new RunReport field must
	// be added there, to the shadow and to a case below.
	rt, st := reflect.TypeOf(RunReport{}), reflect.TypeOf(reflectedRunReport{})
	if rt.NumField() != st.NumField() {
		t.Fatalf("RunReport has %d fields, its shadow %d", rt.NumField(), st.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		if rf, sf := rt.Field(i), st.Field(i); rf.Name != sf.Name || rf.Tag != sf.Tag {
			t.Fatalf("field %d: RunReport has %s `%s`, its shadow %s `%s`", i, rf.Name, rf.Tag, sf.Name, sf.Tag)
		}
	}
	full := RunReport{
		Scenario: `odd "name" <&>`, Seed: -7, Verdict: "flagged",
		Result: Result{
			Started: true, StartedAt: 5, Stopped: true, StoppedAt: 9, Inactivity: true,
			LaunchFailed: true, Unreachable: []core.NodeID{1, 2},
			Errors: []ErrorReport{{Node: 1, Rule: 2, At: 3, Text: "boom <x>"}},
		},
		Passed: true, Duration: 123456789, Events: 42,
		Faults: []InjectedFault{
			{At: 1, Node: "node1", Kind: "DROP", PacketType: "TCP_data"},
			{At: 2, Node: "fabric", Kind: "trunk_down"},
		},
		Errors:      []ErrorReport{{Node: 1, Rule: 2, At: 3, Text: "boom"}, {}},
		Unreachable: []string{"node3", "node4"},
		Nodes:       nodeReportCases,
		Metrics: MetricsSummary{
			Instruments: 3, SampledPoints: 7, SampleInterval: 5 * time.Millisecond,
			Totals: map[string]float64{"tcp/segments_sent": 12345, "engine/drops": 4.5, "small/counter": 3e-9},
		},
	}
	// Long enough for WriteJSON to hand the document over in chunks.
	big := full
	for len(big.Nodes)*64 < 4*reportChunk {
		big.Nodes = append(big.Nodes, nodeReportCases...)
	}
	cases := []RunReport{{}, {Verdict: "no_scenario", Passed: true, Metrics: MetricsSummary{Instruments: 1}}, full, big}
	for i, c := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.reflected()); err != nil {
			t.Fatal(err)
		}
		var got writeCounter
		if err := c.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("case %d, indented:\ngot  %s\nwant %s", i, got.String(), want.String())
		}
		if chunked := want.Len() > 2*reportChunk; (got.writes > 1) != chunked {
			t.Errorf("case %d: %d bytes written in %d calls", i, want.Len(), got.writes)
		}
		// Staged in the writer's own spare capacity: after what it holds,
		// and through a buffered writer.
		var grown, flushed bytes.Buffer
		grown.Grow(want.Len() + 2*reportChunk)
		grown.WriteString("x")
		bw := bufio.NewWriterSize(&flushed, 3*reportChunk)
		if err := c.WriteJSON(&grown); err != nil || grown.String() != "x"+want.String() {
			t.Errorf("case %d, into a grown buffer (%v):\n%s", i, err, grown.String())
		}
		if err := c.WriteJSON(bw); err != nil || bw.Flush() != nil || flushed.String() != want.String() {
			t.Errorf("case %d, through a bufio.Writer (%v):\n%s", i, err, flushed.String())
		}

		compact, err := json.Marshal(c.reflected())
		if err != nil {
			t.Fatal(err)
		}
		marshalled, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		appended, err := c.AppendJSON([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if string(marshalled) != string(compact) || string(appended) != "x"+string(compact) {
			t.Errorf("case %d, compact:\nMarshal    %s\nAppendJSON %s\nwant       %s", i, marshalled, appended, compact)
		}
	}
	// A reading JSON cannot carry is an error, as it is for encoding/json.
	bad := RunReport{Metrics: MetricsSummary{Totals: map[string]float64{"a/b": math.NaN()}}}
	if _, err := json.Marshal(bad.reflected()); err == nil {
		t.Fatal("encoding/json encoded NaN")
	}
	if _, err := bad.AppendJSON(nil); err == nil {
		t.Error("AppendJSON encoded a NaN total")
	}
	bad = RunReport{Nodes: []NodeReport{{Layers: []LayerReport{{Layer: "l", Names: []string{"n"}, Values: []float64{math.Inf(1)}}}}}}
	if err := bad.WriteJSON(io.Discard); err == nil {
		t.Error("WriteJSON encoded an infinite reading")
	}
}

// writeCounter is a buffer that counts the Write calls filling it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSparseNodeShapesRoundTrip: the shapes a sparse report lists — a
// crashed host with no active layer, an active host with only some of
// its layers, and a host with no layers at all, which a reader takes as
// all zero — read back unchanged through both readers: ReportDecoder
// and, for a record that is not this build's, json.Unmarshal with
// NodeReport.UnmarshalJSON.
func TestSparseNodeShapesRoundTrip(t *testing.T) {
	rep := RunReport{Verdict: "stopped", Nodes: []NodeReport{
		{Name: "down", Crashed: true},
		{Name: "busy", Layers: []LayerReport{{Layer: "nic", Names: []string{"rx_frames", "tx_frames"}, Values: []float64{0, 3}}}},
		{Name: "idle"},
	}}
	written, err := rep.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RunReport
	if _, ok := new(ReportDecoder).DecodeJSON(written, &decoded); !ok {
		t.Fatalf("ReportDecoder refused %s", written)
	}
	var unmarshalled struct{ Nodes []NodeReport }
	if err := json.Unmarshal(written, &unmarshalled); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]NodeReport{"ReportDecoder": decoded.Nodes, "json.Unmarshal": unmarshalled.Nodes} {
		if len(got) != len(rep.Nodes) {
			t.Fatalf("%s read %d nodes from %s", name, len(got), written)
		}
		for i, n := range got {
			if !reflect.DeepEqual(n.reflected(), rep.Nodes[i].reflected()) {
				t.Errorf("%s: node %d read as %+v, want %+v", name, i, n, rep.Nodes[i])
			}
			if _, ok := n.Layer("tcp"); ok {
				t.Errorf("%s: node %s lists a tcp row", name, n.Name)
			}
		}
	}
}

// TestReportDecoderInvertsAppendJSON holds ReportDecoder to its encoder
// and to the reference: whatever AppendJSON wrote without needing an
// escape reads back, with nothing consumed past the report, as a report
// that encodes to the same bytes in both layouts; everything else is
// refused, so that json.Unmarshal reads it. Reports of one decoder share
// their reading-name and totals-key lists the way one testbed's do.
func TestReportDecoderInvertsAppendJSON(t *testing.T) {
	every := RunReport{
		Scenario: "every_member", Seed: -7, Verdict: "flagged",
		Result: Result{
			Started: true, StartedAt: 5, Stopped: true, StoppedAt: 9, Inactivity: true,
			LaunchFailed: true, Unreachable: []core.NodeID{1, 2},
			Errors: []ErrorReport{{Node: 1, Rule: 2, At: 3, Text: "boom <x>"}},
		},
		Passed: true, Duration: 123456789, Events: math.MaxInt64,
		Faults:      []InjectedFault{{At: 1, Node: "node1", Kind: "DROP", PacketType: "TCP_data"}, {At: 2, Node: "fabric", Kind: "trunk_down"}},
		Errors:      []ErrorReport{{Node: 1, Rule: 2, At: 3, Text: `"boom"`}, {}},
		Unreachable: []string{"node3", "node4"},
		Nodes:       nodeReportCases[:4],
		Metrics: MetricsSummary{
			Instruments: 3, SampledPoints: 7, SampleInterval: 5 * time.Millisecond,
			Totals: map[string]float64{"tcp/segments_sent": 12345, "engine/drops": 4.5, "small/counter": 3e-9, "big/counter": 1e22},
		},
	}
	tb, _ := fig6Testbed(t, 3)
	fig6, err := tb.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Reset(4); err != nil {
		t.Fatal(err)
	}
	fig6Again, err := tb.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	escaped := every
	escaped.Nodes = nodeReportCases
	var d ReportDecoder
	var read []RunReport
	for i, c := range []struct {
		rep  RunReport
		fits bool
	}{
		{RunReport{}, true}, {RunReport{Verdict: "no_scenario", Passed: true, Metrics: MetricsSummary{Instruments: 1}}, true},
		{every, true}, {fig6, true}, {fig6Again, true}, {every, true},
		{escaped, false}, {RunReport{Scenario: "<s>"}, false}, {RunReport{Events: math.MaxUint64}, false},
	} {
		written, err := c.rep.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got RunReport
		rest, ok := d.DecodeJSON(append(written[:len(written):len(written)], `,"next":`...), &got)
		if ok != c.fits {
			t.Errorf("case %d: decoder read it: %v, want %v\n%s", i, ok, c.fits, written)
		}
		if !ok {
			continue
		}
		if string(rest) != `,"next":` {
			t.Errorf("case %d: %q left after the report", i, rest)
		}
		if again, err := got.AppendJSON(nil); err != nil || string(again) != string(written) {
			t.Errorf("case %d: read back as a report that encodes to (%v)\n%s\nwant\n%s", i, err, again, written)
		}
		if doc, want := reportBytes(t, got), reportBytes(t, c.rep); string(doc) != string(want) {
			t.Errorf("case %d: indented document\n%s\nwant\n%s", i, doc, want)
		}
		read = append(read, got)
	}
	if t.Failed() {
		return
	}
	// One four-host report after another: same tables, separate values.
	// Each lists only its active rows, so rows pair by node and layer.
	a, b := read[3], read[4]
	paired := 0
	for _, na := range a.Nodes {
		for _, nb := range b.Nodes {
			if na.Name != nb.Name {
				continue
			}
			for _, la := range na.Layers {
				lb, ok := nb.Layer(la.Layer)
				if !ok {
					continue
				}
				paired++
				if &la.Names[0] != &lb.Names[0] || &la.Values[0] == &lb.Values[0] {
					t.Fatalf("node %s layer %s: names shared %v, values shared %v", na.Name, la.Layer, &la.Names[0] == &lb.Names[0], &la.Values[0] == &lb.Values[0])
				}
			}
		}
	}
	if paired == 0 {
		t.Fatal("the two fig6 reports share no node layer")
	}
	if &a.Metrics.keys[0] != &b.Metrics.keys[0] {
		t.Error("two reports of one stream do not share their totals keys")
	}
	// Incomplete and trailing input.
	written, _ := every.AppendJSON(nil)
	for cut := 0; cut < len(written); cut++ {
		if _, ok := d.DecodeJSON(written[:cut], new(RunReport)); ok {
			t.Fatalf("the first %d of %d bytes read as a report", cut, len(written))
		}
	}
}
