package rules

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// ObsNames enforces the observability naming vocabulary on string-literal
// registrations: metric names (Registry.Counter/Gauge) must be
// subsystem_name_unit with a unit from obs.MetricUnits, event names
// (Journal.Record) must be subsystem_subject_verb with a verb from
// obs.EventVerbs, and health-check names (Health.Register /
// RegisterReadiness) must be subsystem_subject_condition with a condition
// from obs.HealthSuffixes. Names built at runtime are outside a linter's
// reach; the registries themselves panic on those.
var ObsNames = &analysis.Analyzer{
	Name: "obsnames",
	Doc:  "enforces the metric, event and health-check naming vocabulary on obs registrations",
	Run:  runObsNames,
}

// obsNameCheck validates one name class: which obs receiver type and
// methods register it, how to validate, and what to say when it fails.
type obsNameCheck struct {
	recv    string          // receiver type name in internal/obs
	methods map[string]bool // methods whose first argument is the name
	valid   func(string) bool
	kind    string // diagnostic noun
	scheme  string // diagnostic scheme description
	vocab   []string
}

var obsNameChecks = []obsNameCheck{
	{
		recv:    "Registry",
		methods: map[string]bool{"Counter": true, "Gauge": true},
		valid:   obs.ValidMetricName,
		kind:    "metric name",
		scheme:  "subsystem_name_unit: lowercase snake_case, >= 3 segments, unit one of",
		vocab:   obs.MetricUnits,
	},
	{
		recv:    "Journal",
		methods: map[string]bool{"Record": true},
		valid:   obs.ValidEventName,
		kind:    "event name",
		scheme:  "subsystem_subject_verb: lowercase snake_case, >= 2 segments, verb one of",
		vocab:   obs.EventVerbs,
	},
	{
		recv:    "Health",
		methods: map[string]bool{"Register": true, "RegisterReadiness": true},
		valid:   obs.ValidHealthName,
		kind:    "health check name",
		scheme:  "subsystem_subject_condition: lowercase snake_case, >= 2 segments, condition one of",
		vocab:   obs.HealthSuffixes,
	},
}

func runObsNames(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for i := range obsNameChecks {
				c := &obsNameChecks[i]
				if !c.methods[sel.Sel.Name] || !isObsType(pass.Info.TypeOf(sel.X), c.recv) {
					continue
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok {
					return true // dynamic name: checked at runtime by the registry
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if !c.valid(name) {
					pass.Reportf(lit.Pos(), "%s %q does not follow %s %s",
						c.kind, name, c.scheme, strings.Join(c.vocab, "/"))
				}
				return true
			}
			return true
		})
	}
}

// isObsType reports whether t is (a pointer to) the named type of a
// package whose import path ends in internal/obs.
func isObsType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}
