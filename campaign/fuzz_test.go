package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
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

// recordLines runs spec at one worker and returns its record lines.
func recordLines(tb testing.TB, spec Spec) [][]byte {
	tb.Helper()
	var sink bytes.Buffer
	if _, err := Run(context.Background(), spec, Options{Workers: 1, Sink: &sink}); err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n"))
}

// everyMember is a hand-written record that sets every optional member,
// some to values only encoding/json's escapes can carry.
const everyMember = `{"index":3,"label":"we\"ird <&>   läbel","outcome":"error","error":"boom\n","goodput_mbps":1e-7,` +
	`"mean_rtt":"1.5ms","max_inter_arrival":-7,"report":{"seed":-1,"verdict":"launch_failed",` +
	`"result":{"started":false,"stopped":false,"launch_failed":true,"unreachable":[2]},"passed":false,"virtual_ns":5,"events":9,` +
	`"faults":[{"at_ns":1,"node":"fabric","kind":"trunk_down"}],"errors":[{"node":1,"rule":2,"at_ns":3,"text":"<x>"}],` +
	`"unreachable":["node3"],"nodes":[{"name":"n","crashed":true,"layers":{"tcp":{},"nic":{"b":1e21,"a":-0.5}}},{"name":""}],` +
	`"metrics":{"instruments":2,"sampled_points":1,"sample_interval_ns":5,"totals":{"z/z":1e22,"a/a":3e-9}}}}`

type decoderArm struct {
	name     string
	line     []byte
	template bool
}

// decoderArms is one line per way a record reaches RecordDecoder: shaped
// as appendJSON writes it (template true), or deviating from that by one
// detail the reference reads all the same.
func decoderArms(tb testing.TB) []decoderArm {
	tb.Helper()
	written := string(recordLines(tb, quickstartSpec(2, []float64{0}))[0])
	edit := func(oldNew ...string) []byte {
		line := written
		for i := 0; i < len(oldNew); i += 2 {
			if n := strings.Count(line, oldNew[i]); n != 1 {
				tb.Fatalf("%q is in the encoder's line %d times, want once", oldNew[i], n)
			}
			line = strings.Replace(line, oldNew[i], oldNew[i+1], 1)
		}
		return []byte(line)
	}
	const node1IP = `"ip":{"rx_header_errors":0,"rx_no_handler":0,"rx_packets":13},`
	var all RunRecord
	if err := json.Unmarshal([]byte(everyMember), &all); err != nil {
		tb.Fatal(err)
	}
	all.Label, all.Error, all.Report.Errors[0].Text = "plain", "boom", "x"
	rewritten, err := all.appendJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return []decoderArm{
		{"as written", []byte(written), true},
		{"every member, as written", rewritten, true},
		{"every member, by hand", []byte(everyMember), false},
		{"members swapped", edit(`"attempts":1,"outcome":"pass",`, `"outcome":"pass","attempts":1,`), false},
		{"a space", edit(`{"index":0,`, `{"index": 0,`), false},
		{"escaped label", edit(`"label":"ber=0/s0"`, `"label":"ber=0\/s0"`), false},
		{"duplicate totals key", edit(`"pool/gets":32,`, `"pool/gets":1,"pool/gets":32,`), false},
		{"unsorted totals keys", edit(`"pool/gets":32,"pool/puts":32,`, `"pool/puts":32,"pool/gets":32,`), false},
		{"unsorted readings", edit(`"syn_retries":0,"timeouts":0}}},{"name":"node2"`, `"timeouts":0,"syn_retries":0}}},{"name":"node2"`), false},
		{"unsorted layers", edit(node1IP, ``, `{"name":"node1","layers":{`, `{"name":"node1","layers":{`+node1IP), false},
		{"a layer fewer", edit(node1IP, ``), true},
		{"crashed false", edit(`{"name":"node1",`, `{"name":"node1","crashed":false,`), false},
		{"unknown member", edit(`,"attempts":1,`, `,"attempts":1,"wall_ms":3,`), false},
		{"unknown member of a fault", edit(`"packet_type":"TCP_data"}`, `"packet_type":"TCP_data","frame":7}`), false},
		{"fault without a packet type", edit(`,"packet_type":"TCP_data"}`, `}`), true},
		{"null report", []byte(`{"index":0,"label":"","seed_index":0,"seed":0,"attempts":0,"outcome":"","report":null}`), false},
		{"trailing newline", []byte(written + "\n"), false},
	}
}

// sameDecoding fails unless got, which RecordDecoder read, is the record
// the reference read: equal scalar members, and equal bytes — or the
// same refusal — from appendJSON and from the report's indented WriteJSON.
func sameDecoding(t *testing.T, got, ref RunRecord) {
	t.Helper()
	a, b := got, ref
	a.Report, a.Series, b.Report, b.Series = nil, nil, nil, nil
	if a != b {
		t.Fatalf("scalar members\n%+v\nthe reference's\n%+v", a, b)
	}
	gotLine, gotErr := got.appendJSON(nil)
	refLine, refErr := ref.appendJSON(nil)
	if (gotErr != nil) != (refErr != nil) || (gotErr == nil && !bytes.Equal(gotLine, refLine)) {
		t.Fatalf("re-encodes as (%v)\n%s\nthe reference's as (%v)\n%s", gotErr, gotLine, refErr, refLine)
	}
	if (got.Report == nil) != (ref.Report == nil) || (got.Series == nil) != (ref.Series == nil) {
		t.Fatalf("report %v series %v, the reference's %v %v", got.Report != nil, got.Series != nil, ref.Report != nil, ref.Series != nil)
	}
	if got.Report != nil {
		var gotDoc, refDoc bytes.Buffer
		gotErr, refErr := got.Report.WriteJSON(&gotDoc), ref.Report.WriteJSON(&refDoc)
		if (gotErr != nil) != (refErr != nil) || (gotErr == nil && !bytes.Equal(gotDoc.Bytes(), refDoc.Bytes())) {
			t.Fatalf("report document (%v)\n%s\nthe reference's (%v)\n%s", gotErr, gotDoc.Bytes(), refErr, refDoc.Bytes())
		}
	}
}

// TestRecordDecoderArms pins which lines the template reads and which it
// leaves to the reference, and that a line it reads re-encodes to itself.
func TestRecordDecoderArms(t *testing.T) {
	for _, arm := range decoderArms(t) {
		var dec RecordDecoder
		var got, ref RunRecord
		if fits := dec.template(arm.line, &got); fits != arm.template {
			t.Errorf("%s: template read it: %v, want %v\n%s", arm.name, fits, arm.template, arm.line)
			continue
		}
		if err := json.Unmarshal(arm.line, &ref); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		// Again with the same decoder: whatever name tables the first
		// reading left behind, a refused line's included, are in force.
		if err := dec.Decode(arm.line, &got); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		sameDecoding(t, got, ref)
		if again, err := got.appendJSON(nil); arm.template && (err != nil || !bytes.Equal(again, arm.line)) {
			t.Errorf("%s: the template read\n%s\nas a record that encodes to (%v)\n%s", arm.name, arm.line, err, again)
		}
	}
}

// FuzzRunRecordJSON holds the record's two hand-written halves to
// encoding/json. The decoder: for every input, RecordDecoder and
// json.Unmarshal agree on whether it is a record and, when it is, on the
// record (sameDecoding) — with a new decoder, with one whose name tables
// come from another record, and with one whose tables come from this
// input. The encoder: any input that decodes — which is how a journaled
// record comes back on resume — must encode, through appendJSON and
// through json.Marshal, to exactly the bytes reflection writes for the
// method-less shadow, fail exactly when it fails, and read back as a
// record that encodes to the same bytes again. Seeded with the golden
// campaign's records, one with a sampled series, and decoderArms; the
// committed corpus adds a three-host record whose report leaves out its
// idle host and its hosts' all-zero engine rows.
func FuzzRunRecordJSON(f *testing.F) {
	sameWireShape(f, RunRecord{}, reflectedRunRecord{})
	sameWireShape(f, virtualwire.RunReport{}, reflectedRunReport{})
	sameWireShape(f, virtualwire.MetricsSummary{}, reflectedMetricsSummary{})

	golden := recordLines(f, quickstartSpec(2, []float64{0, 1e-6}))
	sampled := quickstartSpec(1, []float64{0})
	sampled.Configs[0].MetricsSampleInterval = Duration(10 * time.Second)
	for _, line := range append(golden, recordLines(f, sampled)...) {
		f.Add(line)
	}
	for _, arm := range decoderArms(f) {
		f.Add(arm.line)
	}
	f.Add([]byte(`{}`))
	// A series sample without its kind: a record, but not one that encodes.
	f.Add([]byte(`{"index":0,"label":"","seed_index":0,"seed":0,"attempts":0,"outcome":"","series":{"final_at_ns":0,"final":[{"node":"n","layer":"l","name":"m","value":1}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec RunRecord
		refErr := json.Unmarshal(data, &rec)
		var dec RecordDecoder
		for _, tables := range []string{"none", "another record's", "its own"} {
			var got RunRecord
			if err := dec.Decode(data, &got); (err != nil) != (refErr != nil) {
				t.Fatalf("decoder (name tables: %s) error %v, encoding/json error %v", tables, err, refErr)
			} else if err == nil {
				sameDecoding(t, got, rec)
			}
			if tables == "none" {
				if err := dec.Decode(golden[0], &got); err != nil {
					t.Fatal(err)
				}
			}
		}
		if refErr != nil {
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
