package virtualwire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"virtualwire/internal/jsonenc"
	"virtualwire/internal/metrics"
)

// RunReport is the unified outcome of a Run/RunContext: one
// JSON-marshalable value carrying the full result — scenario verdict,
// injection journal, flagged errors, unreachable nodes, per-node layer
// readings and a metrics digest.
type RunReport struct {
	// Scenario is the staged scenario's name; empty when no script was
	// loaded.
	Scenario string `json:"scenario,omitempty"`
	// Seed echoes Config.Seed: together with the testbed construction
	// calls it identifies the run completely (equal seeds, equal runs).
	Seed int64 `json:"seed"`
	// Verdict condenses the outcome to one word: "passed", "flagged",
	// "inactivity", "launch_failed", "not_started", "horizon" (ran to
	// the horizon without an explicit STOP), or "no_scenario".
	Verdict string `json:"verdict"`
	// Result is the scenario outcome; zero-valued when no script was
	// loaded.
	Result Result `json:"result"`
	// Passed applies the conventional criterion: started, no flagged
	// errors, and an explicit STOP when the script declares an
	// inactivity timeout.
	Passed bool `json:"passed"`
	// Duration is the virtual time the run covered.
	Duration time.Duration `json:"virtual_ns"`
	// Events is the number of simulation events executed.
	Events uint64 `json:"events"`
	// Faults is the run's injection journal, merged across nodes in
	// time order (the same data Testbed.InjectedFaults returns).
	Faults []InjectedFault `json:"faults,omitempty"`
	// Errors collects every FLAG_ERR report, in arrival order.
	Errors []ErrorReport `json:"errors,omitempty"`
	// Unreachable names the nodes that never acknowledged INIT when the
	// launch was abandoned (Result.LaunchFailed); empty otherwise.
	Unreachable []string `json:"unreachable,omitempty"`
	// Nodes carries the hosts' per-layer instrument readings at run
	// end — the data Summary used to render, in a structured form. Only
	// a layer with a nonzero reading is listed, and only a host that
	// lists a layer or has crashed: a missing host or layer reads as all
	// zero.
	Nodes []NodeReport `json:"nodes,omitempty"`
	// Metrics digests the instrument registry at run end; the full
	// series is available from Testbed.MetricsSeries.
	Metrics MetricsSummary `json:"metrics"`
}

// NodeReport is one host's slice of a RunReport: its terminal state and
// its layers' instrument readings (the same values Node.Snapshot
// returns). It encodes as {"name", "crashed", "layers": {layer: {name:
// value}}} with layers and names in sorted order; "crashed" is left out
// when false and "layers" when empty.
type NodeReport struct {
	Name    string
	Crashed bool
	// Layers lists the layers the node runs that have a nonzero reading,
	// sorted by name, each with every one of its readings.
	Layers []LayerReport
}

// LayerReport is one layer's readings: Values[i] is the reading called
// Names[i], names in sorted order. Names comes from the testbed's
// report schema and is shared by every report it produces — read-only.
type LayerReport struct {
	Layer  string
	Names  []string
	Values []float64
}

// Layer returns the named layer's readings; ok is false when the node
// does not run it.
func (n NodeReport) Layer(name string) (l LayerReport, ok bool) {
	for _, l := range n.Layers {
		if l.Layer == name {
			return l, true
		}
	}
	return LayerReport{}, false
}

// Value returns the named reading, or 0 when the layer has none.
func (l LayerReport) Value(name string) float64 {
	if i := sort.SearchStrings(l.Names, name); i < len(l.Names) && l.Names[i] == name {
		return l.Values[i]
	}
	return 0
}

// The report encoders below write JSON without reflection, in either of
// encoding/json's two layouts (see internal/jsonenc): compact, which
// every campaign record carries, or indented, which RunReport.WriteJSON
// emits directly instead of encoding compactly and re-indenting the
// whole document. Output is byte-identical to the reflected encoding of
// the same shape, and an encoder fails exactly where that would: on a
// reading that is NaN or infinite.

var errNonFinite = errors.New("virtualwire: report carries a NaN or infinite reading, which JSON cannot encode")

// MarshalJSON writes the compact form; see appendJSON.
func (n NodeReport) MarshalJSON() ([]byte, error) {
	return n.appendJSON(make([]byte, 0, n.jsonSize()), -1)
}

// jsonSize is an upper estimate of the node's encoded length, indented.
func (n NodeReport) jsonSize() int {
	size := 96
	for _, l := range n.Layers {
		size += 48 + 40*len(l.Values)
	}
	return size
}

func (n NodeReport) appendJSON(b []byte, depth int) ([]byte, error) {
	d1 := jsonenc.Deeper(depth)
	d2 := jsonenc.Deeper(d1)
	d3 := jsonenc.Deeper(d2)
	b = append(b, '{')
	b = jsonenc.AppendMember(b, d1, "name")
	b = jsonenc.AppendString(b, n.Name)
	if n.Crashed {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "crashed")
		b = append(b, "true"...)
	}
	if len(n.Layers) != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "layers")
		b = append(b, '{')
		for i, l := range n.Layers {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendMember(b, d2, l.Layer)
			if len(l.Values) == 0 {
				b = append(b, "{}"...)
				continue
			}
			b = append(b, '{')
			for j, v := range l.Values {
				if j > 0 {
					b = append(b, ',')
				}
				b = jsonenc.AppendMember(b, d3, l.Names[j])
				var ok bool
				if b, ok = jsonenc.AppendFloat(b, v); !ok {
					return b, errNonFinite
				}
			}
			b = jsonenc.AppendBreak(b, d2)
			b = append(b, '}')
		}
		b = jsonenc.AppendBreak(b, d1)
		b = append(b, '}')
	}
	b = jsonenc.AppendBreak(b, depth)
	return append(b, '}'), nil
}

// UnmarshalJSON reads the encoded form back (journaled campaign records
// are decoded on resume), restoring the sorted layer and name order.
func (n *NodeReport) UnmarshalJSON(b []byte) error {
	var raw struct {
		Name    string                        `json:"name"`
		Crashed bool                          `json:"crashed"`
		Layers  map[string]map[string]float64 `json:"layers"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*n = NodeReport{Name: raw.Name, Crashed: raw.Crashed}
	for layer, vals := range raw.Layers {
		l := LayerReport{Layer: layer, Names: make([]string, 0, len(vals)), Values: make([]float64, len(vals))}
		for name := range vals {
			l.Names = append(l.Names, name)
		}
		sort.Strings(l.Names)
		for i, name := range l.Names {
			l.Values[i] = vals[name]
		}
		n.Layers = append(n.Layers, l)
	}
	sort.Slice(n.Layers, func(i, j int) bool { return n.Layers[i].Layer < n.Layers[j].Layer })
	return nil
}

// verdict condenses a result into RunReport.Verdict.
func verdict(r Result, hasScenario bool) string {
	switch {
	case !hasScenario:
		return "no_scenario"
	case r.LaunchFailed:
		return "launch_failed"
	case !r.Started:
		return "not_started"
	case len(r.Errors) > 0:
		return "flagged"
	case r.Inactivity:
		return "inactivity"
	case r.Stopped:
		return "stopped"
	default:
		return "horizon"
	}
}

// reportChunk bounds the buffer WriteJSON stages a report in.
const reportChunk = 64 << 10

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: slices preserve run order and layers, reading names
// and totals keys are sorted, so equal runs produce byte-identical
// documents — the bytes json.Encoder with SetIndent("", "  ") writes,
// produced in one pass and, past reportChunk, handed to w a chunk at a
// time. A chunk is staged in w's own spare capacity when w offers it
// (bytes.Buffer, bufio.Writer) and has room for it, else in a buffer
// WriteJSON allocates once per call.
func (r RunReport) WriteJSON(w io.Writer) error {
	size := r.jsonSize()
	chunked := size > reportChunk
	if chunked {
		size = reportChunk
	}
	var own []byte
	stage := func() []byte {
		if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
			if b := ab.AvailableBuffer(); cap(b) >= size {
				return b
			}
		}
		if own == nil {
			own = make([]byte, 0, size)
		}
		return own[:0]
	}
	var flush func([]byte) []byte
	var werr error
	if chunked {
		flush = func(b []byte) []byte {
			if werr == nil {
				_, werr = w.Write(b)
			}
			return stage()
		}
	}
	b, err := r.appendJSON(stage(), 0, flush)
	if err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalJSON writes the compact form — what json.Marshal would derive
// from the field tags, without the reflection.
func (r RunReport) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, r.jsonSize()), -1, nil)
}

// AppendJSON appends the compact form to b: the encoder under
// MarshalJSON, for a caller (the campaign record writer) that owns and
// reuses its buffer.
func (r RunReport) AppendJSON(b []byte) ([]byte, error) {
	return r.appendJSON(b, -1, nil)
}

// jsonSize is an upper estimate of the report's encoded length.
func (r RunReport) jsonSize() int {
	size := 1024 + 64*len(r.Faults) + 40*len(r.Metrics.Totals)
	for _, n := range r.Nodes {
		size += n.jsonSize()
	}
	return size
}

// appendJSON is the one report encoder: the document in either layout,
// its closing brace at depth. A non-nil flush is offered the buffer
// between node rows once little room is left, and returns the buffer to
// continue in.
func (r RunReport) appendJSON(b []byte, depth int, flush func([]byte) []byte) ([]byte, error) {
	d1 := jsonenc.Deeper(depth)
	d2 := jsonenc.Deeper(d1)
	var err error
	// The lists only a failed run carries stay on encoding/json.
	reflected := func(key string, v any) {
		if err == nil {
			b = append(b, ',')
			b = jsonenc.AppendMember(b, d1, key)
			b, err = jsonenc.AppendValue(b, d1, v)
		}
	}
	b = append(b, '{')
	if r.Scenario != "" {
		b = jsonenc.AppendMember(b, d1, "scenario")
		b = jsonenc.AppendString(b, r.Scenario)
		b = append(b, ',')
	}
	b = jsonenc.AppendMember(b, d1, "seed")
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "verdict")
	b = jsonenc.AppendString(b, r.Verdict)
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "result")
	if b, err = appendResultJSON(b, d1, r.Result); err != nil {
		return b, err
	}
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "passed")
	b = strconv.AppendBool(b, r.Passed)
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "virtual_ns")
	b = strconv.AppendInt(b, int64(r.Duration), 10)
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "events")
	b = strconv.AppendUint(b, r.Events, 10)
	if len(r.Faults) != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "faults")
		b = appendFaultsJSON(b, d1, r.Faults)
	}
	if len(r.Errors) != 0 {
		reflected("errors", r.Errors)
	}
	if len(r.Unreachable) != 0 {
		reflected("unreachable", r.Unreachable)
	}
	if err != nil {
		return b, err
	}
	if len(r.Nodes) != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "nodes")
		b = append(b, '[')
		for i, n := range r.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendBreak(b, d2)
			if b, err = n.appendJSON(b, d2); err != nil {
				return b, err
			}
			if flush != nil && cap(b)-len(b) < reportChunk/8 {
				b = flush(b)
			}
		}
		b = jsonenc.AppendBreak(b, d1)
		b = append(b, ']')
	}
	b = append(b, ',')
	b = jsonenc.AppendMember(b, d1, "metrics")
	if b, err = r.Metrics.appendJSON(b, d1); err != nil {
		return b, err
	}
	b = jsonenc.AppendBreak(b, depth)
	return append(b, '}'), nil
}

// appendResultJSON writes the scenario outcome, its closing brace at
// depth: the members every run carries by hand, and only the lists a
// failed launch or a flagged run adds through encoding/json.
func appendResultJSON(b []byte, depth int, r Result) ([]byte, error) {
	d1 := jsonenc.Deeper(depth)
	flag := func(key string, v, omitEmpty bool) {
		if v || !omitEmpty {
			b = strconv.AppendBool(jsonenc.AppendMember(append(b, ','), d1, key), v)
		}
	}
	at := func(key string, v time.Duration) {
		if v != 0 {
			b = strconv.AppendInt(jsonenc.AppendMember(append(b, ','), d1, key), int64(v), 10)
		}
	}
	b = append(b, '{')
	b = jsonenc.AppendMember(b, d1, "started")
	b = strconv.AppendBool(b, r.Started)
	at("started_at_ns", r.StartedAt)
	flag("stopped", r.Stopped, false)
	at("stopped_at_ns", r.StoppedAt)
	flag("inactivity", r.Inactivity, true)
	flag("launch_failed", r.LaunchFailed, true)
	var err error
	if len(r.Unreachable) != 0 {
		b, err = jsonenc.AppendValue(jsonenc.AppendMember(append(b, ','), d1, "unreachable"), d1, r.Unreachable)
	}
	if err == nil && len(r.Errors) != 0 {
		b, err = jsonenc.AppendValue(jsonenc.AppendMember(append(b, ','), d1, "errors"), d1, r.Errors)
	}
	b = jsonenc.AppendBreak(b, depth)
	return append(b, '}'), err
}

// appendFaultsJSON writes the injection journal, its closing bracket at
// depth.
func appendFaultsJSON(b []byte, depth int, faults []InjectedFault) []byte {
	d1 := jsonenc.Deeper(depth)
	d2 := jsonenc.Deeper(d1)
	b = append(b, '[')
	for i, f := range faults {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendBreak(b, d1)
		b = append(b, '{')
		b = strconv.AppendInt(jsonenc.AppendMember(b, d2, "at_ns"), int64(f.At), 10)
		b = jsonenc.AppendString(jsonenc.AppendMember(append(b, ','), d2, "node"), f.Node)
		b = jsonenc.AppendString(jsonenc.AppendMember(append(b, ','), d2, "kind"), f.Kind)
		if f.PacketType != "" {
			b = jsonenc.AppendString(jsonenc.AppendMember(append(b, ','), d2, "packet_type"), f.PacketType)
		}
		b = jsonenc.AppendBreak(b, d1)
		b = append(b, '}')
	}
	b = jsonenc.AppendBreak(b, depth)
	return append(b, ']')
}

// ReportDecoder reads reports back from the compact bytes AppendJSON
// writes, the inverse of the encoders above and as free of reflection:
// it matches their layout member by member (see jsonenc.Cursor) instead
// of parsing JSON. One decoder serves one stream of reports — a
// campaign's records — and shares among them what one testbed's report
// schema shares among its reports: a layer's sorted reading names and the
// digest's sorted keys are built for the first report and verified, name
// by name, against every later one. The zero value is ready to use; a
// decoder is not safe for concurrent use.
type ReportDecoder struct {
	layers []LayerReport     // reading-name tables met so far: Layer and Names, no Values
	totals []string          // the last digest's keys
	names  map[string]string // node, fault-kind and packet-type names met so far

	faults []InjectedFault // scratch for one report's journal

	// Scratch for one report's node rows, laid out as reportSchema lays
	// them out: rows back to back, row i's values vals[rowVals[i]:rowVals[i+1]],
	// node i's rows rows[nodeRows[i]:nodeRows[i+1]].
	vals     []float64
	rows     []LayerReport
	rowVals  []int
	nodes    []NodeReport
	nodeRows []int
}

// maxLayerTables and maxNames bound what a decoder remembers; a stream
// that names more layers or nodes than any testbed has starts over.
const (
	maxLayerTables = 32
	maxNames       = 4096
)

// DecodeJSON reads into r the report that b starts with and returns the
// bytes after it. ok is false, and r meaningless, when b does not start
// with bytes AppendJSON writes — another layout, escaped strings, members
// moved or unknown: such input is encoding/json's to decode. What comes
// back aliases neither b nor the decoder's scratch; reading-name lists
// are shared between reports and read-only, as LayerReport says.
func (d *ReportDecoder) DecodeJSON(b []byte, r *RunReport) (rest []byte, ok bool) {
	var c jsonenc.Cursor
	c.Reset(b)
	*r = RunReport{}
	c.Lit("{")
	if c.TryLit(`"scenario":`) {
		r.Scenario = string(c.String())
		c.Lit(",")
	}
	c.Lit(`"seed":`)
	r.Seed = c.Int64()
	c.Lit(`,"verdict":`)
	r.Verdict = string(c.String())
	c.Lit(`,"result":`)
	decodeResultJSON(&c, &r.Result)
	c.Lit(`,"passed":`)
	r.Passed = c.Bool()
	c.Lit(`,"virtual_ns":`)
	r.Duration = time.Duration(c.Int64())
	c.Lit(`,"events":`)
	r.Events = c.Uint()
	if c.TryLit(`,"faults":`) {
		r.Faults = d.decodeFaults(&c)
	}
	if c.TryLit(`,"errors":`) {
		c.Value(&r.Errors)
	}
	if c.TryLit(`,"unreachable":`) {
		c.Value(&r.Unreachable)
	}
	if c.TryLit(`,"nodes":`) {
		r.Nodes = d.decodeNodes(&c)
	}
	c.Lit(`,"metrics":`)
	d.decodeMetrics(&c, &r.Metrics)
	c.Lit("}")
	return c.Rest(), c.OK()
}

func decodeResultJSON(c *jsonenc.Cursor, r *Result) {
	c.Lit(`{"started":`)
	r.Started = c.Bool()
	if c.TryLit(`,"started_at_ns":`) {
		r.StartedAt = time.Duration(c.Int64())
	}
	c.Lit(`,"stopped":`)
	r.Stopped = c.Bool()
	if c.TryLit(`,"stopped_at_ns":`) {
		r.StoppedAt = time.Duration(c.Int64())
	}
	r.Inactivity = c.TryLit(`,"inactivity":true`)
	r.LaunchFailed = c.TryLit(`,"launch_failed":true`)
	if c.TryLit(`,"unreachable":`) {
		c.Value(&r.Unreachable)
	}
	if c.TryLit(`,"errors":`) {
		c.Value(&r.Errors)
	}
	c.Lit("}")
}

func (d *ReportDecoder) decodeFaults(c *jsonenc.Cursor) []InjectedFault {
	d.faults = d.faults[:0]
	c.Lit("[")
	for more := true; more && c.OK(); more = c.TryLit(",") {
		var f InjectedFault
		c.Lit(`{"at_ns":`)
		f.At = time.Duration(c.Int64())
		c.Lit(`,"node":`)
		f.Node = d.name(c.String())
		c.Lit(`,"kind":`)
		f.Kind = d.name(c.String())
		if c.TryLit(`,"packet_type":`) {
			f.PacketType = d.name(c.String())
		}
		c.Lit("}")
		d.faults = append(d.faults, f)
	}
	c.Lit("]")
	return append([]InjectedFault(nil), d.faults...)
}

// name returns b as a string, the same string for the same bytes: a
// stream names the same few nodes, fault kinds and packet types in every
// record.
func (d *ReportDecoder) name(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil || len(d.names) == maxNames {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// decodeNodes reads the node rows NodeReport.appendJSON wrote and, like
// gatherReport, carves them from one array each of nodes, layer rows and
// values. Layers must ascend strictly within a node, for the reason
// jsonenc.Cursor.Floats gives for their readings.
func (d *ReportDecoder) decodeNodes(c *jsonenc.Cursor) []NodeReport {
	d.vals, d.rows, d.rowVals = d.vals[:0], d.rows[:0], d.rowVals[:0]
	d.nodes, d.nodeRows = d.nodes[:0], d.nodeRows[:0]
	c.Lit("[")
	for more := true; more && c.OK(); more = c.TryLit(",") {
		c.Lit(`{"name":`)
		d.nodes = append(d.nodes, NodeReport{Name: d.name(c.String()), Crashed: c.TryLit(`,"crashed":true`)})
		d.nodeRows = append(d.nodeRows, len(d.rows))
		if c.TryLit(`,"layers":{`) {
			first := len(d.rows)
			for next := true; next && c.OK(); next = c.TryLit(",") {
				t := d.layerTable(c.String())
				c.Lit(":")
				if len(d.rows) > first && d.rows[len(d.rows)-1].Layer >= t.Layer {
					c.Fail()
				}
				d.rowVals = append(d.rowVals, len(d.vals))
				t.Names, d.vals = c.Floats(t.Names, d.vals)
				d.rows = append(d.rows, *t)
			}
			c.Lit("}")
		}
		c.Lit("}")
	}
	c.Lit("]")
	if !c.OK() {
		return nil
	}
	d.rowVals = append(d.rowVals, len(d.vals))
	d.nodeRows = append(d.nodeRows, len(d.rows))
	vals := append([]float64(nil), d.vals...)
	rows := append([]LayerReport(nil), d.rows...)
	for i := range rows {
		rows[i].Values = vals[d.rowVals[i]:d.rowVals[i+1]:d.rowVals[i+1]]
	}
	nodes := append([]NodeReport(nil), d.nodes...)
	for i := range nodes {
		nodes[i].Layers = rows[d.nodeRows[i]:d.nodeRows[i+1]:d.nodeRows[i+1]]
	}
	return nodes
}

// layerTable returns the decoder's name table for a layer, empty on
// first sight.
func (d *ReportDecoder) layerTable(layer []byte) *LayerReport {
	for i := range d.layers {
		if d.layers[i].Layer == string(layer) {
			return &d.layers[i]
		}
	}
	if len(d.layers) == maxLayerTables {
		d.layers = d.layers[:0]
	}
	d.layers = append(d.layers, LayerReport{Layer: string(layer)})
	return &d.layers[len(d.layers)-1]
}

func (d *ReportDecoder) decodeMetrics(c *jsonenc.Cursor, m *MetricsSummary) {
	c.Lit(`{"instruments":`)
	m.Instruments = c.Int()
	if c.TryLit(`,"sampled_points":`) {
		m.SampledPoints = c.Int()
	}
	if c.TryLit(`,"sample_interval_ns":`) {
		m.SampleInterval = time.Duration(c.Int64())
	}
	if c.TryLit(`,"totals":`) {
		d.totals, d.vals = c.Floats(d.totals, d.vals[:0])
		m.Totals = make(map[string]float64, len(d.totals))
		for i, k := range d.totals {
			m.Totals[k] = d.vals[i]
		}
		m.keys = d.totals
	}
	c.Lit("}")
}

// Text renders the report for humans: verdict, flagged errors, fault
// journal size and per-node layer activity. It is the structured
// replacement for Testbed.Summary.
func (r RunReport) Text() string {
	var b strings.Builder
	if r.Scenario != "" {
		fmt.Fprintf(&b, "scenario %q: %s (verdict %s)\n", r.Scenario, r.Result, r.Verdict)
	} else {
		fmt.Fprintf(&b, "no scenario loaded (verdict %s)\n", r.Verdict)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	if len(r.Unreachable) > 0 {
		fmt.Fprintf(&b, "  unreachable: %s\n", strings.Join(r.Unreachable, ", "))
	}
	fmt.Fprintf(&b, "virtual time %v, %d events, %d fault(s) injected\n",
		r.Duration, r.Events, len(r.Faults))
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "%-8s", n.Name)
		if eng, ok := n.Layer("engine"); ok {
			fmt.Fprintf(&b, " engine: %.0f intercepted, %.0f matched, %.0f actions",
				eng.Value("packets_intercepted"), eng.Value("packets_matched"), eng.Value("actions_fired"))
		}
		if n.Crashed {
			b.WriteString(" [CRASHED by FAIL]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// reportSchema is the testbed's slot tables for the run-end walk: where
// each reading Registry.Visit yields goes in a report. Reading sets are
// fixed per layer and the walk's order per registry, so the tables are
// computed once and a run-end report is one pass that stores and adds
// floats by index — no name is compared, hashed or sorted per reading.
// The walk checks every reading against its slot as it goes and
// gatherReport rebuilds the tables when one does not fit: a source was
// registered since.
type reportSchema struct {
	// rows is every node's layer rows back to back, each node's sorted
	// by layer, with Names set (sorted) and Values unset; row i's values
	// are rowVals[i]:rowVals[i+1] of a run's value array, and node i's
	// rows are nodeRows[i]:nodeRows[i+1].
	rows     []LayerReport
	rowVals  []int
	nodeRows []int

	sources []sourceSlots // pull sources, in registration order

	// totalKeys[i] is the "layer/name" key of MetricsSummary.Totals that
	// slot i of totals sums; sortedKeys is the same keys sorted, shared
	// read-only with every summary (see MetricsSummary.totalKeys).
	totalKeys  []string
	sortedKeys []string
	totals     []float64 // per-run scratch
}

// readingSlot places one reading of a pull source.
type readingSlot struct {
	name  string
	kind  metrics.Kind
	total int // slot in totals; -1 for a reading the digest leaves out
	pos   int // position among its layer row's sorted names
}

// sourceSlots places one pull source's readings, in the order its hook
// appends them. Every node's source of one layer shares one readings
// table.
type sourceSlots struct {
	readings []readingSlot
	vals     int // index in the value array of the source's layer row; -1 when it has none
}

// WarmPoolReading names the readings that depend on whether the run
// started from a fresh or a reused (Reset) testbed, and on the shard
// count — the frame pools' and event free lists' hits and lengths. The
// digest and sampled points leave them out, which keeps RunReports and
// series bit-identical across those paths; Metrics() and MetricsSeries'
// final gather keep them.
func WarmPoolReading(s MetricsSample) bool {
	switch s.Layer {
	case "pool":
		return s.Name == "hits" || s.Name == "free_frames"
	case "scheduler":
		return s.Name == "events_recycled" || s.Name == "free_list_len"
	}
	return false
}

// buildReportSchema computes the slot tables from a walk of the registry
// as it stands.
func (tb *Testbed) buildReportSchema() {
	// Every host layer hook fills one row, so the registry's counts size
	// every table before the walk.
	hostRows := tb.nodeSources[1] - tb.nodeSources[0]
	sc := reportSchema{
		rows:     make([]LayerReport, 0, hostRows),
		rowVals:  make([]int, 1, hostRows+1),
		nodeRows: make([]int, 1, len(tb.nodes)+1),
		sources:  make([]sourceSlots, 0, tb.reg.Sources()),
	}
	slotOf := make(map[[2]string]int)
	totalSlot := func(layer, name string, kind metrics.Kind) int {
		if kind != metrics.KindCounter || WarmPoolReading(MetricsSample{Layer: layer, Name: name}) {
			return -1
		}
		k := [2]string{layer, name}
		slot, ok := slotOf[k]
		if !ok {
			slot = len(sc.totalKeys)
			slotOf[k] = slot
			sc.totalKeys = append(sc.totalKeys, layer+"/"+name)
		}
		return slot
	}
	// A node layer's row, found while walking: which source fills it.
	// The walk meets them in node order.
	type nodeRow struct {
		node  int
		layer string
		names []string // sorted
		src   int
	}
	nodeLayers := make([]nodeRow, 0, hostRows)
	type layerTable struct {
		names    []string
		readings []readingSlot
	}
	layers := make(map[string]layerTable)
	ni := 0 // the node whose hooks the walk has reached
	tb.reg.Visit(func(i int, node, layer string, readings []metrics.SnapshotValue) {
		// The hosts' layer hooks, registered back to back and in node
		// order by registerMetricSources, fill the node rows; any other
		// source under a host's name only counts toward the digest.
		isNodeLayer := tb.nodeSources[0] <= i && i < tb.nodeSources[1]
		lt, shared := layerTable{}, false
		if isNodeLayer {
			lt, shared = layers[layer]
		}
		if !shared {
			lt.readings = make([]readingSlot, len(readings))
			order := make([]int, len(readings))
			for j, r := range readings {
				lt.readings[j] = readingSlot{name: r.Name, kind: r.Kind, total: totalSlot(layer, r.Name, r.Kind)}
				order[j] = j
			}
			sort.Slice(order, func(a, b int) bool { return readings[order[a]].Name < readings[order[b]].Name })
			lt.names = make([]string, len(order))
			for pos, j := range order {
				lt.readings[j].pos = pos
				lt.names[pos] = readings[j].Name
			}
		}
		if isNodeLayer {
			layers[layer] = lt
			for tb.nodes[ni].name != node {
				ni++
			}
			nodeLayers = append(nodeLayers, nodeRow{node: ni, layer: layer, names: lt.names, src: i})
		}
		sc.sources = append(sc.sources, sourceSlots{readings: lt.readings, vals: -1})
	})
	for ni := range tb.nodes {
		n := 0
		for n < len(nodeLayers) && nodeLayers[n].node == ni {
			n++
		}
		rows := nodeLayers[:n]
		nodeLayers = nodeLayers[n:]
		slices.SortFunc(rows, func(a, b nodeRow) int { return strings.Compare(a.layer, b.layer) })
		for _, r := range rows {
			sc.sources[r.src].vals = sc.rowVals[len(sc.rowVals)-1]
			sc.rows = append(sc.rows, LayerReport{Layer: r.layer, Names: r.names})
			sc.rowVals = append(sc.rowVals, sc.sources[r.src].vals+len(r.names))
		}
		sc.nodeRows = append(sc.nodeRows, len(sc.rows))
	}
	sc.sortedKeys = append([]string(nil), sc.totalKeys...)
	sort.Strings(sc.sortedKeys)
	sc.totals = make([]float64, len(sc.totalKeys))
	tb.schema = sc
}

// gatherReport reads every instrument once, at run end, into both halves
// of the report that carry readings: the layer rows (the values
// Node.Snapshot returns, carved from one array) and the metrics digest.
// A row is kept only when it holds a nonzero reading, a node only when it
// keeps a row or has crashed: a reader takes a missing node or layer as
// all zero.
func (tb *Testbed) gatherReport() ([]NodeReport, MetricsSummary) {
	vals, n, ok := tb.walkReport()
	if !ok {
		tb.buildReportSchema()
		if vals, n, ok = tb.walkReport(); !ok {
			panic("virtualwire: a metrics source changed its readings between two walks of the registry")
		}
	}
	sc := &tb.schema
	keptRows, keptVals, keptNodes := 0, 0, 0
	for i, nd := range tb.nodes {
		rows := 0
		for r := sc.nodeRows[i]; r < sc.nodeRows[i+1]; r++ {
			if row := vals[sc.rowVals[r]:sc.rowVals[r+1]]; !allZero(row) {
				rows++
				keptVals += len(row)
			}
		}
		keptRows += rows
		if rows > 0 || nd.engine.Failed() {
			keptNodes++
		}
	}
	// With every row kept the walked array is the report's; otherwise the
	// kept rows move to one of their own size and the walked array stays
	// behind for the next walk.
	var kept []float64
	dropped := keptRows < len(sc.rows)
	tb.reportVals = nil
	if dropped {
		kept = make([]float64, 0, keptVals)
		tb.reportVals = vals
	}
	var nodes []NodeReport
	if keptNodes > 0 {
		rows := make([]LayerReport, 0, keptRows)
		nodes = make([]NodeReport, 0, keptNodes)
		for i, nd := range tb.nodes {
			first := len(rows)
			for r := sc.nodeRows[i]; r < sc.nodeRows[i+1]; r++ {
				row := sc.rows[r]
				row.Values = vals[sc.rowVals[r]:sc.rowVals[r+1]:sc.rowVals[r+1]]
				if allZero(row.Values) {
					continue
				}
				if dropped {
					at := len(kept)
					kept = append(kept, row.Values...)
					row.Values = kept[at:len(kept):len(kept)]
				}
				rows = append(rows, row)
			}
			crashed := nd.engine.Failed()
			if len(rows) == first && !crashed {
				continue
			}
			node := NodeReport{Name: nd.name, Crashed: crashed}
			if len(rows) > first {
				node.Layers = rows[first:len(rows):len(rows)]
			}
			nodes = append(nodes, node)
		}
	}
	sum := MetricsSummary{Instruments: n, Totals: make(map[string]float64, len(sc.totalKeys)), keys: sc.sortedKeys}
	for i, k := range sc.totalKeys {
		sum.Totals[k] = sc.totals[i]
	}
	if tb.sampler != nil {
		sum.SampledPoints = tb.sampler.Len()
		sum.SampleInterval = tb.sampler.Interval()
	}
	return nodes, sum
}

// allZero reports whether a row holds no nonzero reading.
func allZero(row []float64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// walkReport is the one registry walk: it fills a value array for the
// node rows — the one the last gatherReport left behind, else a fresh
// one; every slot is written — and the schema's totals, summing in walk
// order so the float sums repeat bit for bit. ok is false when a reading
// did not match its slot; the results are then meaningless.
func (tb *Testbed) walkReport() (vals []float64, n int, ok bool) {
	sc := &tb.schema
	if len(sc.rowVals) == 0 {
		return nil, 0, false // never built
	}
	vals = tb.reportVals
	if len(vals) != sc.rowVals[len(sc.rowVals)-1] {
		vals = make([]float64, sc.rowVals[len(sc.rowVals)-1])
	}
	totals := sc.totals
	for i := range totals {
		totals[i] = 0
	}
	ok = true
	sources := 0
	n = tb.reg.Visit(func(i int, _, _ string, readings []metrics.SnapshotValue) {
		sources++
		if i >= len(sc.sources) || len(readings) != len(sc.sources[i].readings) {
			ok = false
			return
		}
		src := &sc.sources[i]
		for j := range readings {
			r, s := &readings[j], &src.readings[j]
			if s.name != r.Name || s.kind != r.Kind {
				ok = false
				return
			}
			if s.total >= 0 {
				totals[s.total] += r.Value
			}
			if src.vals >= 0 {
				vals[src.vals+s.pos] = r.Value
			}
		}
	})
	return vals, n, ok && sources == len(sc.sources)
}
