package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"virtualwire"
)

// The shadows below are RunRecord's wire shape — same members, order and
// tags — with no Marshaler anywhere an append encoder has replaced
// reflection (the record, its report, the node rows, the digest), so
// json.Marshal of one is what encoding/json alone would write.
// Duration keeps its own MarshalJSON: its string form is the contract
// appendJSON has to meet, not part of what it replaced.

type reflectedRunRecord struct {
	Index           int                        `json:"index"`
	Label           string                     `json:"label"`
	Config          string                     `json:"config,omitempty"`
	Workload        string                     `json:"workload,omitempty"`
	SeedIndex       int                        `json:"seed_index"`
	Seed            int64                      `json:"seed"`
	Attempts        int                        `json:"attempts"`
	Outcome         string                     `json:"outcome"`
	Error           string                     `json:"error,omitempty"`
	DeliveredBytes  int                        `json:"delivered_bytes,omitempty"`
	GoodputMbps     float64                    `json:"goodput_mbps,omitempty"`
	Retransmissions int                        `json:"retransmissions,omitempty"`
	Sent            int                        `json:"sent,omitempty"`
	Received        int                        `json:"received,omitempty"`
	MeanRTT         Duration                   `json:"mean_rtt,omitempty"`
	MaxInterArrival Duration                   `json:"max_inter_arrival,omitempty"`
	Report          *reflectedRunReport        `json:"report,omitempty"`
	Series          *virtualwire.MetricsSeries `json:"series,omitempty"`
}

type reflectedRunReport struct {
	Scenario    string                      `json:"scenario,omitempty"`
	Seed        int64                       `json:"seed"`
	Verdict     string                      `json:"verdict"`
	Result      virtualwire.Result          `json:"result"`
	Passed      bool                        `json:"passed"`
	Duration    time.Duration               `json:"virtual_ns"`
	Events      uint64                      `json:"events"`
	Faults      []virtualwire.InjectedFault `json:"faults,omitempty"`
	Errors      []virtualwire.ErrorReport   `json:"errors,omitempty"`
	Unreachable []string                    `json:"unreachable,omitempty"`
	Nodes       []reflectedNodeReport       `json:"nodes,omitempty"`
	Metrics     reflectedMetricsSummary     `json:"metrics"`
}

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

func (r RunRecord) reflected() reflectedRunRecord {
	out := reflectedRunRecord{
		Index: r.Index, Label: r.Label, Config: r.Config, Workload: r.Workload,
		SeedIndex: r.SeedIndex, Seed: r.Seed, Attempts: r.Attempts, Outcome: r.Outcome, Error: r.Error,
		DeliveredBytes: r.DeliveredBytes, GoodputMbps: r.GoodputMbps, Retransmissions: r.Retransmissions,
		Sent: r.Sent, Received: r.Received, MeanRTT: r.MeanRTT, MaxInterArrival: r.MaxInterArrival,
		Series: r.Series,
	}
	if rep := r.Report; rep != nil {
		out.Report = &reflectedRunReport{
			Scenario: rep.Scenario, Seed: rep.Seed, Verdict: rep.Verdict, Result: rep.Result,
			Passed: rep.Passed, Duration: rep.Duration, Events: rep.Events,
			Faults: rep.Faults, Errors: rep.Errors, Unreachable: rep.Unreachable,
			Metrics: reflectedMetricsSummary{rep.Metrics.Instruments, rep.Metrics.SampledPoints,
				rep.Metrics.SampleInterval, rep.Metrics.Totals},
		}
		for _, n := range rep.Nodes {
			sn := reflectedNodeReport{Name: n.Name, Crashed: n.Crashed}
			for _, l := range n.Layers {
				if sn.Layers == nil {
					sn.Layers = make(map[string]map[string]float64)
				}
				sn.Layers[l.Layer] = make(map[string]float64)
				for i, name := range l.Names {
					sn.Layers[l.Layer][name] = l.Values[i]
				}
			}
			out.Report.Nodes = append(out.Report.Nodes, sn)
		}
	}
	return out
}

// sameWireShape fails unless the shadow lists the original's fields, in
// order, under the same tags: a member added to one must be added to the
// other, and to the append encoder.
func sameWireShape(t testing.TB, original, shadow any) {
	t.Helper()
	ot, st := reflect.TypeOf(original), reflect.TypeOf(shadow)
	var fields []reflect.StructField
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); f.IsExported() {
			fields = append(fields, f)
		}
	}
	if len(fields) != st.NumField() {
		t.Fatalf("%v has %d exported fields, its shadow %d", ot, len(fields), st.NumField())
	}
	for i, f := range fields {
		if sf := st.Field(i); f.Name != sf.Name || f.Tag != sf.Tag {
			t.Fatalf("%v field %d is %s `%s`, its shadow's %s `%s`", ot, i, f.Name, f.Tag, sf.Name, sf.Tag)
		}
	}
}

// FuzzRunRecordJSON holds the record's append encoder to encoding/json:
// any input that decodes into a RunRecord — which is how a journaled
// record comes back on resume — must encode, through appendJSON and
// through json.Marshal, to exactly the bytes reflection writes for the
// method-less shadow, fail exactly when it fails, and read back as a
// record that encodes to the same bytes again. Seeded with the golden
// campaign's records, one with a sampled series, and a hand-written one
// that sets every optional member.
func FuzzRunRecordJSON(f *testing.F) {
	sameWireShape(f, RunRecord{}, reflectedRunRecord{})
	sameWireShape(f, virtualwire.RunReport{}, reflectedRunReport{})
	sameWireShape(f, virtualwire.MetricsSummary{}, reflectedMetricsSummary{})

	golden := quickstartSpec(2, []float64{0, 1e-6})
	sampled := quickstartSpec(1, []float64{0})
	sampled.Configs[0].MetricsSampleInterval = Duration(10 * time.Second)
	for _, spec := range []Spec{golden, sampled} {
		var sink bytes.Buffer
		if _, err := Run(context.Background(), spec, Options{Workers: 1, Sink: &sink}); err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n")) {
			f.Add(line)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"index":3,"label":"we\"ird <&>   läbel","outcome":"error","error":"boom\n","goodput_mbps":1e-7,` +
		`"mean_rtt":"1.5ms","max_inter_arrival":-7,"report":{"seed":-1,"verdict":"launch_failed",` +
		`"result":{"started":false,"stopped":false,"launch_failed":true,"unreachable":[2]},"passed":false,"virtual_ns":5,"events":9,` +
		`"faults":[{"at_ns":1,"node":"fabric","kind":"trunk_down"}],"errors":[{"node":1,"rule":2,"at_ns":3,"text":"<x>"}],` +
		`"unreachable":["node3"],"nodes":[{"name":"n","crashed":true,"layers":{"tcp":{},"nic":{"b":1e21,"a":-0.5}}},{"name":""}],` +
		`"metrics":{"instruments":2,"sampled_points":1,"sample_interval_ns":5,"totals":{"z/z":1e22,"a/a":3e-9}}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec RunRecord
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		want, wantErr := json.Marshal(rec.reflected())
		got, err := rec.appendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSON\n%s\nencoding/json on the shadow\n%s", got, want)
		}
		if viaMarshal, err := json.Marshal(rec); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(rec): %v\n%s\nwant\n%s", err, viaMarshal, want)
		}
		var back RunRecord
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("own encoding does not decode: %v\n%s", err, got)
		}
		if again, err := back.appendJSON(nil); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("decoded back and re-encoded: %v\n%s\nwant\n%s", err, again, got)
		}
	})
}
