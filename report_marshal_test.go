package virtualwire

import (
	"bytes"
	"encoding/json"
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
		want, err := json.Marshal(reflectedMetricsSummary(c))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("MetricsSummary %+v:\ngot  %s\nwant %s", c, got, want)
		}
	}
}

// TestWriteJSONMatchesEncoder holds the one-pass indented writer to the
// bytes json.Encoder with SetIndent produces for the same report (which
// is how WriteJSON used to be implemented), over every optional member.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	// WriteJSON names each member by hand: a new RunReport field must be
	// added there (and to a case below) before this count is raised.
	if n := reflect.TypeOf(RunReport{}).NumField(); n != 12 {
		t.Fatalf("RunReport has %d fields; WriteJSON and this test know 12", n)
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
	cases := []RunReport{{}, {Verdict: "no_scenario", Passed: true, Metrics: MetricsSummary{Instruments: 1}}, full}
	for i, c := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("case %d:\ngot  %s\nwant %s", i, got.String(), want.String())
		}
	}
}
