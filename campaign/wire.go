package campaign

// Versioned wire schema for campaign specs.
//
// A Spec travels as JSON between three producers — hand-written files
// fed to vwcampaign -spec, the quick-flag CLI construction, and the
// vwcampaignd submit endpoint — and one consumer, the executor. All of
// them speak the same schema, identified by the "version" field:
//
//   - Version 3 is the schema documented in docs/CAMPAIGNS.md. A spec
//     that omits "version" is the current version (Normalize stamps it).
//   - Versions 2 and 3 each removed names from the one before
//     (docs/SERVICE.md lists them). A spec stamped with an older version
//     that uses none of them means the same today, still parses and keeps
//     its stamp, so its Hash does not move; one that does is rejected at
//     submit time like any other unknown field.
//   - Unknown fields are rejected, not ignored: a typoed axis name must
//     fail at submit time, never silently shrink a matrix.
//   - A build rejects every version newer than SpecVersion. Within one
//     version, fields are only ever added (with zero-value defaults
//     preserving old behaviour), so older specs keep parsing; removing
//     or repurposing a field requires bumping SpecVersion.
//
// ParsePlan (and ParseSpec, which drops the plan) is the single entry
// point for untrusted spec bytes; it decodes strictly and plans the spec,
// returning errors that name the offending field path
// ("configs[2].medium", "configs[0].trunk_faults[1].trunk"). The
// canonical journal identity of a spec is Hash(): the SHA-256 of the
// normalized spec's JSON encoding. See docs/SERVICE.md for the
// compatibility policy.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"virtualwire"
)

// SpecVersion is the wire-schema version this build reads and writes.
const SpecVersion = 3

// OutputGeneration numbers the deliberate breaks of run-record bytes:
// two builds of the same generation write byte-identical records for the
// same spec, so a record stream begun by one may be continued by the
// other; across generations it may not. The service journal stamps each
// job with it. Generation 1 had a separate single-queue engine behind
// Shards: 0; generation 2 runs every testbed on the windowed engine;
// generation 3 samples at window barriers, so a sampled run's events
// count no sampler tick and its series no warm-pool reading; generation
// 4 forwards by plan instead of by learning, so a switch floods only a
// broadcast or an unknown MAC, and the switch, fabric, pool and event
// counters of a run that used to flood to find its hosts move;
// generation 5 leaves idle layer rows and idle hosts out of the report,
// so a record lists only the layers with a nonzero reading and only the
// hosts that have one or crashed. Raise it in the change that moves the
// bytes, never otherwise.
const OutputGeneration = 5

// FieldError is a spec validation error located by its JSON field path,
// e.g. "configs[2].medium" or "variants[0].workload.kind".
type FieldError struct {
	// Path is the JSON path of the offending field, from the spec root.
	Path string
	// Err describes what is wrong with the field's value.
	Err error
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("campaign: spec field %q: %v", e.Path, e.Err)
}

func (e *FieldError) Unwrap() error { return e.Err }

// fieldErrf builds a FieldError in one line.
func fieldErrf(path, format string, args ...any) error {
	return &FieldError{Path: path, Err: fmt.Errorf(format, args...)}
}

// prefixField roots err under path: FieldErrors get their path extended,
// anything else becomes a FieldError at path.
func prefixField(path string, err error) error {
	if err == nil {
		return nil
	}
	var fe *FieldError
	if errors.As(err, &fe) {
		p := path
		if fe.Path != "" {
			p = path + "." + fe.Path
		}
		return &FieldError{Path: p, Err: fe.Err}
	}
	return &FieldError{Path: path, Err: err}
}

// Normalize canonicalizes every defaultable field in place: the schema
// version is stamped, and the seed axis is resolved (an explicit Seeds
// list fixes SeedCount; otherwise a missing SeedCount becomes 1). It is
// the one place defaults are filled — the quick-flag CLI, the JSON
// paths and the service all call it, so equal effective specs marshal
// to equal bytes and Hash is canonical. Normalize is idempotent.
func (s *Spec) Normalize() {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if len(s.Seeds) > 0 {
		s.SeedCount = len(s.Seeds)
	} else if s.SeedCount <= 0 {
		s.SeedCount = 1
	}
}

// Hash is the spec's canonical identity: the hex SHA-256 of its
// normalized JSON encoding. The service journal keys resumable state on
// it, so a spec edited between daemon runs is detected instead of
// silently resumed against a different matrix.
func (s *Spec) Hash() string {
	n := *s
	n.Normalize()
	b, err := json.Marshal(&n)
	if err != nil {
		// Spec holds only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("campaign: marshal spec for hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// MaxShards reports the widest per-run shard request across the spec's
// axes — the per-run CPU footprint a scheduler should budget for. Auto
// counts as GOMAXPROCS (its upper bound), an unset or zero count as 1.
func (s *Spec) MaxShards() int {
	max := 1
	consider := func(o *ConfigOverride) {
		if o.Shards == nil {
			return
		}
		k := *o.Shards
		if k == virtualwire.ShardsAuto {
			k = runtime.GOMAXPROCS(0)
		}
		if k > max {
			max = k
		}
	}
	for i := range s.Configs {
		consider(&s.Configs[i])
	}
	for i := range s.Variants {
		consider(&s.Variants[i].Config)
	}
	return max
}

// Validate reports what Plan would reject, as a FieldError naming the
// offending field path: it is Plan with the plan dropped.
func (s *Spec) Validate() error {
	_, err := s.Plan()
	return err
}

// ParsePlan admits one spec from untrusted JSON: unknown fields and
// trailing data are rejected, then the spec is planned (Spec.Plan), which
// normalizes defaults and checks the version and everything else. It is
// the shared submit path of the vwcampaign -spec flag and the service
// API, so both reject exactly the same inputs with the same messages,
// and both go on to run the plan they were handed.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, decodeSpecError(err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: spec: trailing data after the spec object")
	}
	return s.Plan()
}

// ParseSpec is ParsePlan for callers that want only the normalized,
// admitted spec.
func ParseSpec(data []byte) (*Spec, error) {
	p, err := ParsePlan(data)
	if err != nil {
		return nil, err
	}
	s := p.spec // a copy: the caller's spec must not pin the plan's compiled scripts
	return &s, nil
}

// decodeSpecError turns encoding/json's decode failures into errors
// that name the offending field where the decoder knows it.
func decodeSpecError(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) && te.Field != "" {
		return &FieldError{Path: te.Field, Err: fmt.Errorf("cannot decode JSON %s into %s", te.Value, te.Type)}
	}
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		field := strings.TrimPrefix(msg, "json: unknown field ")
		return fmt.Errorf("campaign: spec: unknown field %s (schema version %d; see docs/SERVICE.md)", field, SpecVersion)
	}
	return fmt.Errorf("campaign: spec: %w", err)
}
