package virtualwire

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
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
	// Nodes carries each host's per-layer instrument readings at run
	// end — the data Summary used to render, in a structured form.
	Nodes []NodeReport `json:"nodes,omitempty"`
	// Metrics digests the instrument registry at run end; the full
	// series is available from Testbed.MetricsSeries.
	Metrics MetricsSummary `json:"metrics"`
}

// NodeReport is one host's slice of a RunReport: its terminal state and
// every layer's instrument readings (the same values Node.Snapshot
// returns). It encodes as {"name", "crashed", "layers": {layer: {name:
// value}}} with layers and names in sorted order.
type NodeReport struct {
	Name    string
	Crashed bool
	// Layers lists the layers the node runs, sorted by name.
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
// encoding/json's two layouts: compact (depth < 0), which is what
// json.Marshal produces and every campaign record carries, or the
// SetIndent("", "  ") layout with the value's closing bracket at the
// given depth, which RunReport.WriteJSON emits directly instead of
// encoding compactly and re-indenting the whole document. Output is
// byte-identical to the reflected encoding of the same shape.

const jsonIndents = "                " // 8 levels; reports nest 5 deep

// appendMember starts an object member at depth: line break and indent
// (when indenting), the quoted key, the colon.
func appendMember(b []byte, depth int, key string) []byte {
	b = appendBreak(b, depth)
	b = appendJSONString(b, key)
	if depth < 0 {
		return append(b, ':')
	}
	return append(b, ": "...)
}

// appendBreak starts a new line at depth; compact output has none.
func appendBreak(b []byte, depth int) []byte {
	if depth < 0 {
		return b
	}
	b = append(b, '\n')
	return append(b, jsonIndents[:2*depth]...)
}

// deeper is the depth of a value's members given the value's own.
func deeper(depth int) int {
	if depth < 0 {
		return depth
	}
	return depth + 1
}

// MarshalJSON writes the compact form; see appendJSON.
func (n NodeReport) MarshalJSON() ([]byte, error) {
	return n.appendJSON(make([]byte, 0, 64+len(n.Layers)*512), -1), nil
}

func (n NodeReport) appendJSON(b []byte, depth int) []byte {
	d1 := deeper(depth)
	d2 := deeper(d1)
	d3 := deeper(d2)
	b = append(b, '{')
	b = appendMember(b, d1, "name")
	b = appendJSONString(b, n.Name)
	if n.Crashed {
		b = append(b, ',')
		b = appendMember(b, d1, "crashed")
		b = append(b, "true"...)
	}
	if len(n.Layers) != 0 {
		b = append(b, ',')
		b = appendMember(b, d1, "layers")
		b = append(b, '{')
		for i, l := range n.Layers {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMember(b, d2, l.Layer)
			if len(l.Values) == 0 {
				b = append(b, "{}"...)
				continue
			}
			b = append(b, '{')
			for j, v := range l.Values {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendMember(b, d3, l.Names[j])
				b = appendJSONFloat(b, v)
			}
			b = appendBreak(b, d2)
			b = append(b, '}')
		}
		b = appendBreak(b, d1)
		b = append(b, '}')
	}
	b = appendBreak(b, depth)
	return append(b, '}')
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

// appendJSONString quotes s the way encoding/json would. Identifiers —
// the overwhelmingly common case for node, layer and metric names — take
// the allocation-free fast path; anything needing escapes falls back to
// the real encoder.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: slices preserve run order and layers, reading names
// and totals keys are sorted, so equal runs produce byte-identical
// documents — the bytes json.Encoder with SetIndent("", "  ") writes,
// produced in one pass (at a thousand nodes the document is over a
// megabyte, nearly all of it per-node readings).
func (r RunReport) WriteJSON(w io.Writer) error {
	size := 1024 + 64*len(r.Faults)
	for _, n := range r.Nodes {
		size += 96
		for _, l := range n.Layers {
			size += 48 + 40*len(l.Values)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, '{')
	if r.Scenario != "" {
		b = appendMember(b, 1, "scenario")
		b = appendJSONString(b, r.Scenario)
		b = append(b, ',')
	}
	b = appendMember(b, 1, "seed")
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, ',')
	b = appendMember(b, 1, "verdict")
	b = appendJSONString(b, r.Verdict)
	b, err := appendReflected(b, "result", r.Result)
	b = append(b, ',')
	b = appendMember(b, 1, "passed")
	b = strconv.AppendBool(b, r.Passed)
	b = append(b, ',')
	b = appendMember(b, 1, "virtual_ns")
	b = strconv.AppendInt(b, int64(r.Duration), 10)
	b = append(b, ',')
	b = appendMember(b, 1, "events")
	b = strconv.AppendUint(b, r.Events, 10)
	if len(r.Faults) != 0 && err == nil {
		b, err = appendReflected(b, "faults", r.Faults)
	}
	if len(r.Errors) != 0 && err == nil {
		b, err = appendReflected(b, "errors", r.Errors)
	}
	if len(r.Unreachable) != 0 && err == nil {
		b, err = appendReflected(b, "unreachable", r.Unreachable)
	}
	if err != nil {
		return err
	}
	if len(r.Nodes) != 0 {
		b = append(b, ',')
		b = appendMember(b, 1, "nodes")
		b = append(b, '[')
		for i, n := range r.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBreak(b, 2)
			b = n.appendJSON(b, 2)
		}
		b = appendBreak(b, 1)
		b = append(b, ']')
	}
	b = append(b, ',')
	b = appendMember(b, 1, "metrics")
	b = r.Metrics.appendJSON(b, 1)
	b = append(b, "\n}\n"...)
	_, err = w.Write(b)
	return err
}

// appendReflected appends a depth-1 member of the report document whose
// value is small and irregular (the scenario result, the fault and
// error lists): encoding/json encodes it, indented to sit at depth 1.
func appendReflected(b []byte, key string, v any) ([]byte, error) {
	enc, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return b, err
	}
	b = append(b, ',')
	b = appendMember(b, 1, key)
	return append(b, enc...), nil
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

// layerSchema is one node layer's slot in the testbed's report schema:
// its reading names in sorted order, and where Snapshot puts each.
type layerSchema struct {
	layer string
	names []string // sorted
	order []int    // order[i] = index in Snapshot().Values of names[i]
}

// buildReportSchema fixes, once per testbed, the layer order and the
// per-layer name order every NodeReport uses. A layer's Snapshot lists a
// fixed set of readings in a fixed order, so one node's snapshot stands
// for all and a run-end report copies values straight into sorted
// position instead of building and sorting maps for every node.
func (tb *Testbed) buildReportSchema() {
	seen := make(map[string]bool)
	for _, n := range tb.nodes {
		for _, layer := range n.SnapshotLayers() {
			if seen[layer] {
				continue
			}
			seen[layer] = true
			snap, _ := n.Snapshot(layer)
			sc := layerSchema{layer: layer, order: make([]int, len(snap.Values))}
			for i := range sc.order {
				sc.order[i] = i
			}
			sort.Slice(sc.order, func(i, j int) bool {
				return snap.Values[sc.order[i]].Name < snap.Values[sc.order[j]].Name
			})
			for _, j := range sc.order {
				sc.names = append(sc.names, snap.Values[j].Name)
			}
			tb.reportSchema = append(tb.reportSchema, sc)
		}
	}
	sort.Slice(tb.reportSchema, func(i, j int) bool { return tb.reportSchema[i].layer < tb.reportSchema[j].layer })
}

// nodeReports gathers every host's layer snapshots for the report. All
// nodes' layers and values are carved from two backing arrays.
func (tb *Testbed) nodeReports() []NodeReport {
	perNode := 0
	for _, sc := range tb.reportSchema {
		perNode += len(sc.names)
	}
	// Upper bounds, so the carved sub-slices never move.
	layers := make([]LayerReport, 0, len(tb.nodes)*len(tb.reportSchema))
	vals := make([]float64, 0, len(tb.nodes)*perNode)
	out := make([]NodeReport, len(tb.nodes))
	for i, n := range tb.nodes {
		first := len(layers)
		for _, sc := range tb.reportSchema {
			snap, ok := n.Snapshot(sc.layer)
			if !ok {
				continue
			}
			if len(snap.Values) != len(sc.order) {
				panic(fmt.Sprintf("virtualwire: %s/%s snapshot has %d readings, report schema %d",
					n.name, sc.layer, len(snap.Values), len(sc.order)))
			}
			base := len(vals)
			for _, j := range sc.order {
				vals = append(vals, snap.Values[j].Value)
			}
			layers = append(layers, LayerReport{Layer: sc.layer, Names: sc.names, Values: vals[base:len(vals):len(vals)]})
		}
		out[i] = NodeReport{Name: n.name, Crashed: n.engine.Failed(), Layers: layers[first:len(layers):len(layers)]}
	}
	return out
}
