package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	src := `{
		"name": "wire-test",
		"seed": 7,
		"seed_count": 3,
		"script": "",
		"hosts": 4,
		"horizon": "2s",
		"configs": [{"label": "a"}, {"label": "b", "medium": "bus"}]
	}`
	spec, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Version != SpecVersion {
		t.Errorf("Version = %d, want %d (normalized)", spec.Version, SpecVersion)
	}
	if spec.Runs() != 6 {
		t.Errorf("Runs = %d, want 6", spec.Runs())
	}
	// A re-marshalled spec parses to the same normalized value.
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(b)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if again.Hash() != spec.Hash() {
		t.Error("round-tripped spec hashes differently")
	}
}

func TestParseSpecRejectsUnknownField(t *testing.T) {
	_, err := ParseSpec([]byte(`{"horizon": "1s", "hosts": 2, "sedes": 5}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "sedes") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
}

func TestParseSpecRejectsFutureVersion(t *testing.T) {
	_, err := ParseSpec([]byte(`{"version": 99, "horizon": "1s", "hosts": 2}`))
	if err == nil {
		t.Fatal("future version accepted")
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Path != "version" {
		t.Errorf("err = %v, want FieldError at \"version\"", err)
	}
}

func TestParseSpecRejectsTrailingData(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"horizon": "1s", "hosts": 2} {"horizon": "2s"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestParseSpecTypeErrorNamesField(t *testing.T) {
	_, err := ParseSpec([]byte(`{"horizon": "1s", "hosts": 2, "configs": [{"medium": 7}]}`))
	if err == nil {
		t.Fatal("type error accepted")
	}
	if !strings.Contains(err.Error(), "medium") {
		t.Errorf("error does not name the mistyped field: %v", err)
	}
}

func TestValidateNamesFieldPaths(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		path string
	}{
		{"horizon", func(s *Spec) { s.Horizon = 0 }, "horizon"},
		{"retries", func(s *Spec) { s.Retries = -1 }, "retries"},
		{"medium", func(s *Spec) { s.Configs[1].Medium = "pigeon" }, "configs[1].medium"},
		{"workload", func(s *Spec) { s.Workloads[0].Kind = "stampede" }, "workloads[0].kind"},
		{"manyflow-ports", func(s *Spec) {
			s.Workloads[0].Flows, s.Workloads[0].DstPort = 40, 0xFFF0
		}, "workloads[0].dst_port"},
		{"trunkfault", func(s *Spec) {
			s.Configs[0].Topology = &TopologyOverride{Kind: "ring"}
			s.Configs[0].TrunkFaults = []TrunkFault{{Kind: "melt"}}
		}, "configs[0].trunk_faults[0].kind"},
		{"faults-no-topo", func(s *Spec) {
			s.Configs[0].TrunkFaults = []TrunkFault{{Kind: "trunk_down"}}
		}, "configs[0].trunk_faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Seed:      1,
				Hosts:     2,
				Horizon:   Duration(time.Second),
				Configs:   []ConfigOverride{{Label: "a"}, {Label: "b"}},
				Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 1, Bytes: 64}},
			}
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want *FieldError", err, err)
			}
			if fe.Path != tc.path {
				t.Errorf("path = %q, want %q (err: %v)", fe.Path, tc.path, err)
			}
		})
	}
}

func TestValidateVariantPaths(t *testing.T) {
	spec := Spec{
		Seed:    1,
		Script:  quickstartScript,
		Horizon: Duration(time.Second),
		Variants: []Variant{
			{Label: "ok"},
			{Label: "bad", Workload: &WorkloadSpec{Kind: "smoke-signals"}},
		},
	}
	err := spec.Validate()
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Path != "variants[1].workload.kind" {
		t.Errorf("err = %v, want FieldError at variants[1].workload.kind", err)
	}
}

func TestNormalizeCanonicalizesSeedAxis(t *testing.T) {
	a := Spec{Seed: 1, Hosts: 2, Horizon: Duration(time.Second)}
	b := a
	b.SeedCount = 1 // explicit default
	a.Normalize()
	b.Normalize()
	if a.SeedCount != 1 || a.Version != SpecVersion {
		t.Errorf("normalized a = %+v", a)
	}
	if a.Hash() != b.Hash() {
		t.Error("implicit and explicit SeedCount=1 hash differently")
	}

	c := Spec{Seed: 1, Hosts: 2, Horizon: Duration(time.Second), Seeds: []int64{4, 5}, SeedCount: 9}
	c.Normalize()
	if c.SeedCount != 2 {
		t.Errorf("SeedCount = %d, want len(Seeds) = 2", c.SeedCount)
	}
	// Idempotent.
	before := c.Hash()
	c.Normalize()
	if c.Hash() != before {
		t.Error("Normalize is not idempotent under Hash")
	}
}

func TestHashDiscriminates(t *testing.T) {
	a := Spec{Seed: 1, Hosts: 2, Horizon: Duration(time.Second)}
	b := a
	b.Seed = 2
	if a.Hash() == b.Hash() {
		t.Error("specs with different seeds hash equal")
	}
}

func TestMaxShards(t *testing.T) {
	s := Spec{Seed: 1, Hosts: 2, Horizon: Duration(time.Second)}
	if got := s.MaxShards(); got != 1 {
		t.Errorf("MaxShards (shards unset) = %d, want 1", got)
	}
	four := 4
	s.Configs = []ConfigOverride{{}, {Shards: &four}}
	if got := s.MaxShards(); got != 4 {
		t.Errorf("MaxShards = %d, want 4", got)
	}
}

// ParseSpec is the CLI -spec path: a spec a previous release wrote (no
// version field) must keep parsing under the documented policy.
func TestParseSpecAcceptsVersionlessSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"seed": 3, "hosts": 2, "horizon": "500ms"}`))
	if err != nil {
		t.Fatalf("versionless spec rejected: %v", err)
	}
	if spec.Version != SpecVersion {
		t.Errorf("Version = %d, want %d", spec.Version, SpecVersion)
	}
	if _, err := Run(context.Background(), *spec, Options{Workers: 1}); err != nil {
		t.Fatalf("parsed spec does not run: %v", err)
	}
}

// Version 2 removed indexed_classifier and version 3 removed classifier.
// A spec stamped with an older version (or none) that names neither still
// parses, keeps its stamp and hashes as the build that wrote it did — the
// two hashes below are commit d766a99's, which still had the field — and
// one that names either gets the unknown-field error at every version.
func TestParseSpecVersion1(t *testing.T) {
	const body = `"name": "old", "seed": 5, "seed_count": 2, "hosts": 2, "horizon": "1s", "configs": [{"label": "a"}, {"label": "b", "medium": "bus"}]}`
	for version, hash := range map[int]string{
		1: "022a38d7ba032dad9fee30a2e8ec065767703c78ab28868fd82ba7a019ed4105",
		2: "6542cc9097bb62a7977c1c8fb232677136492b7ff2b2a8cc354c3dd521afb005",
	} {
		spec, err := ParseSpec([]byte(fmt.Sprintf(`{"version": %d, %s`, version, body)))
		if err != nil {
			t.Fatalf("version-%d spec rejected: %v", version, err)
		}
		if spec.Version != version {
			t.Errorf("Version = %d, want the spec's own stamp %d", spec.Version, version)
		}
		if got := spec.Hash(); got != hash {
			t.Errorf("version-%d spec hashes to %s, want %s", version, got, hash)
		}
	}

	for _, version := range []string{`"version": 1, `, `"version": 2, `, `"version": 3, `, ``} {
		for _, member := range []string{`"indexed_classifier": true`, `"classifier": "linear"`, `"classifier": "compiled"`} {
			_, err := ParseSpec([]byte(`{` + version + `"hosts": 2, "horizon": "1s", "configs": [{` + member + `}]}`))
			name := member[:strings.Index(member, ":")]
			if err == nil || !strings.Contains(err.Error(), "unknown field "+name) {
				t.Errorf("%s (%q): err = %v, want the unknown-field error", member, version, err)
			}
		}
	}
}
