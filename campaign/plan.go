package campaign

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"virtualwire"
)

// Plan is an admitted campaign: the spec, and each of its testbed shapes
// resolved, compiled and checked once. Spec.Plan is the one pass that
// rejects a spec — before anything is journaled, queued or written — and
// a Plan is what runs. It holds one entry per shape, never one per run,
// and is read-only: safe to share.
type Plan struct {
	spec   Spec // normalized copy
	shapes []shape
	seeds  int // seed axis length
	runs   int // len(shapes) * seeds
}

// Spec returns the normalized spec the plan was made from.
func (p *Plan) Spec() *Spec { return &p.spec }

// shape is one (script, scenario, config, workload) cell of the matrix.
// A worker keeps one testbed per shape and rewinds it between runs.
type shape struct {
	id                       int
	label, cfgLabel, wlLabel string
	script, scenario         string
	compiled                 *virtualwire.CompiledScript // nil for scriptless shapes; shared read-only
	cfg                      virtualwire.Config          // resolved once; every run sets its own Seed
	wl                       *WorkloadSpec
	seed                     *int64 // Variant.Seed

	// Where the shape's parts sit in the spec, for rejections.
	cfgPath, wlPath, scriptPath, scenarioPath string
}

// point is one run of the matrix: a shape at one seed.
type point struct {
	*shape
	index     int
	runLabel  string
	seed      int64
	seedIndex int
}

// point computes run i of the canonical order: shapes (variants, or
// configs × workloads) major, seed index minor.
func (p *Plan) point(i int) point {
	sh := &p.shapes[i/p.seeds]
	k := i % p.seeds
	pt := point{shape: sh, index: i, runLabel: sh.label, seedIndex: k}
	switch {
	case sh.seed != nil:
		pt.seed = *sh.seed + int64(k)
	case len(p.spec.Seeds) > 0:
		pt.seed = p.spec.Seeds[k]
	default:
		pt.seed = DeriveSeed(p.spec.Seed, i)
	}
	if p.seeds > 1 {
		pt.runLabel = joinLabels(pt.runLabel, "s"+strconv.Itoa(k))
	}
	if pt.runLabel == "" {
		pt.runLabel = "run" + strconv.Itoa(i)
	}
	return pt
}

// Plan admits the spec or says which field it cannot accept: it resolves
// each shape's virtualwire.Config, compiles each unique (script, scenario)
// pair once, declares each shape's testbed exactly as a run will —
// newTestbed and WorkloadSpec.install, which construct nothing — and asks
// it to Check itself. Whatever a run could refuse to build is refused
// here, as a FieldError rooted at the shape's place in the spec
// ("configs[0].trunk_faults[0].trunk", "workloads[1].from",
// "variants[2].script"). Cost is O(shapes × hosts), whatever the seed axis.
func (s *Spec) Plan() (*Plan, error) {
	p := &Plan{spec: *s}
	s = &p.spec
	s.Normalize()
	switch {
	case s.Version < 0 || s.Version > SpecVersion:
		return nil, fieldErrf("version", "unsupported spec version %d (this build speaks versions 1 through %d)", s.Version, SpecVersion)
	case s.Horizon <= 0:
		return nil, fieldErrf("horizon", "must be positive")
	case s.Retries < 0:
		return nil, fieldErrf("retries", "must not be negative")
	case s.Hosts < 0 || s.Hosts > maxHosts:
		return nil, fieldErrf("hosts", "must be between 0 and %d", maxHosts)
	case len(s.Variants) > 0 && (len(s.Configs) > 0 || len(s.Workloads) > 0):
		return nil, fieldErrf("variants", "exclusive with configs and workloads")
	}
	if err := p.resolveShapes(); err != nil {
		return nil, err
	}
	p.seeds = s.seedAxisLen()
	if p.seeds > math.MaxInt/len(p.shapes) {
		return nil, fieldErrf("seed_count", "%d seeds × %d shapes overflows the run index", p.seeds, len(p.shapes))
	}
	p.runs = p.seeds * len(p.shapes)

	compiled := make(map[[2]string]*virtualwire.CompiledScript)
	for i := range p.shapes {
		sh := &p.shapes[i]
		sh.id = i
		if sh.script != "" {
			key := [2]string{sh.script, sh.scenario}
			cs, ok := compiled[key]
			if !ok {
				var err error
				if cs, err = virtualwire.CompileScriptScenario(key[0], key[1]); err != nil {
					path := sh.scriptPath
					if _, bad := virtualwire.ScenarioNames(key[0]); bad == nil {
						path = sh.scenarioPath // the script is fine; the name is not in it
					}
					return nil, &FieldError{Path: path, Err: err}
				}
				compiled[key] = cs
			}
			sh.compiled = cs
		}
		if err := sh.check(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// maxHosts bounds Spec.Hosts: the plan declares every shape's hosts at
// submit, where an allocation must be no threat to the daemon.
const maxHosts = 1 << 16

// resolveShapes lists the matrix's shapes in canonical order with their
// labels, resolved configs and spec paths.
func (p *Plan) resolveShapes() error {
	s := &p.spec
	if len(s.Variants) > 0 {
		p.shapes = make([]shape, len(s.Variants))
		for vi := range s.Variants {
			v := &s.Variants[vi]
			path := fmt.Sprintf("variants[%d]", vi)
			sh := &p.shapes[vi]
			*sh = shape{
				label: v.Label, cfgLabel: v.Config.Label, script: s.Script, scenario: s.Scenario, wl: v.Workload, seed: v.Seed,
				cfgPath: path + ".config", wlPath: path + ".workload", scriptPath: "script", scenarioPath: "scenario",
			}
			if sh.label == "" {
				sh.label = fmt.Sprintf("v%d", vi)
			}
			if v.Script != nil {
				sh.script, sh.scriptPath = *v.Script, path+".script"
			}
			if v.Scenario != "" {
				sh.scenario, sh.scenarioPath = v.Scenario, path+".scenario"
			}
			if v.Workload != nil {
				sh.wlLabel = v.Workload.Label
			}
			var err error
			if sh.cfg, err = v.Config.config(); err != nil {
				return prefixField(sh.cfgPath, err)
			}
		}
		return nil
	}
	configs := s.Configs
	if len(configs) == 0 {
		configs = []ConfigOverride{{}}
	}
	for ci := range configs {
		cfgPath := fmt.Sprintf("configs[%d]", ci)
		cfg, err := configs[ci].config()
		if err != nil {
			return prefixField(cfgPath, err)
		}
		cfgLabel := configs[ci].Label
		if cfgLabel == "" && len(configs) > 1 {
			cfgLabel = fmt.Sprintf("cfg%d", ci)
		}
		for wi := 0; wi < max(1, len(s.Workloads)); wi++ {
			var wl *WorkloadSpec
			wlLabel := ""
			if len(s.Workloads) > 0 {
				wl = &s.Workloads[wi]
				wlLabel = wl.Label
				if wlLabel == "" && len(s.Workloads) > 1 {
					wlLabel = wl.Kind
				}
			}
			p.shapes = append(p.shapes, shape{
				label: joinLabels(cfgLabel, wlLabel), cfgLabel: cfgLabel, wlLabel: wlLabel,
				script: s.Script, scenario: s.Scenario, cfg: cfg, wl: wl,
				cfgPath: cfgPath, wlPath: fmt.Sprintf("workloads[%d]", wi), scriptPath: "script", scenarioPath: "scenario",
			})
		}
	}
	return nil
}

// check declares the shape's testbed the way a run does and has it plan
// itself. Nothing is constructed; the testbed is dropped.
func (sh *shape) check(s *Spec) error {
	tb, err := newTestbed(s, sh, 0)
	if err != nil {
		var fe *FieldError
		if err = asField(err); errors.As(err, &fe) {
			return prefixField(sh.cfgPath, err) // New refused the config
		}
		switch { // the hosts, then: where do they come from?
		case s.Nodes != "":
			return prefixField("nodes", err)
		case sh.compiled != nil:
			return prefixField(sh.scriptPath, err)
		}
		return prefixField("hosts", err)
	}
	if sh.wl != nil {
		if _, err := sh.wl.install(tb); err != nil {
			return prefixField(sh.wlPath, asField(err))
		}
	}
	return prefixField(sh.cfgPath, asField(tb.Check()))
}

// asField makes a testbed's rejection a FieldError at the member the
// testbed names — it spells members as specs do — relative to the config
// or workload it was given. Other errors pass through.
func asField(err error) error {
	var member interface{ Field() string }
	if errors.As(err, &member) {
		return &FieldError{Path: member.Field(), Err: err}
	}
	return err
}
