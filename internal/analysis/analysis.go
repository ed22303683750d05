// Package analysis is a small static-analysis framework for the Proteus
// repository, built entirely on the standard library's go/parser, go/ast and
// go/types. It exists because the properties Proteus's evaluation rests on —
// the simulator tracking the testbed within ~1%, the MILP solver being exact,
// repeated runs being bit-for-bit reproducible from a seed — are invariants
// that runtime tests cannot economically cover: a stray time.Now() in the
// simulated-clock path or an unsorted map iteration in plan construction
// produces silent drift, not a crash.
//
// The framework loads the module from source, type-checks every package with
// a stdlib-only importer, and runs a registry of project-specific checkers
// (see determinism.go, lockdiscipline.go, floateq.go, errcheck.go). Findings
// carry file:line:col positions and a check ID, and can be suppressed for a
// single line with a trailing
//
//	//lint:allow <check> [reason]
//
// comment (or one placed on the line directly above). The cmd/proteus-lint
// CLI is the command-line entry point; CI runs it over ./... and fails on any
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the finding as path:line:col: check: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Checker is one invariant check run over a type-checked package.
type Checker interface {
	// Name is the check ID used in reports and //lint:allow directives.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// Run inspects the package and reports findings through the pass.
	Run(pass *Pass)
}

// Pass is the per-(package, checker) context handed to Checker.Run.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Module is the module path; checkers use it to decide whether a callee
	// is "in-module".
	Module string
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info

	check      string
	directives *directiveIndex
	findings   *[]Finding
}

// Reportf records a finding at pos unless a //lint:allow directive suppresses
// the current check on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.directives.allows(position.Filename, position.Line, p.check) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ObjectOf resolves the object an identifier uses or defines.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// TypeOf returns the type of an expression (nil when untyped).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// CalleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function-typed variables, built-ins and type conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// ModuleChecker is an interprocedural check run once over every loaded
// package together, rather than per package. Module checkers see the whole
// call graph, so they can follow a nondeterminism source or a lock
// acquisition across package boundaries that per-package syntax checks are
// blind to.
type ModuleChecker interface {
	// Name is the check ID used in reports and //lint:allow directives.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// RunModule inspects the module and reports findings through the pass.
	RunModule(pass *ModulePass)
}

// ModulePass is the whole-module context handed to ModuleChecker.RunModule.
// Pkgs is sorted by import path regardless of load order, so module checkers
// are deterministic by construction.
type ModulePass struct {
	Fset   *token.FileSet
	Module string
	Pkgs   []*Package

	check    string
	findings *[]Finding
	cg       *CallGraph
}

// Reportf records a finding at pos unless a //lint:allow directive suppresses
// the current check on that line (in whichever package owns the file).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, pkg := range p.Pkgs {
		if pkg.directives.allows(position.Filename, position.Line, p.check) {
			return
		}
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// CallGraph returns the module-wide call graph, built once and shared by
// every module checker in the pass.
func (p *ModulePass) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = BuildCallGraph(p.Module, p.Pkgs)
	}
	return p.cg
}

// pass builds a per-package helper Pass so module checkers can reuse the
// syntactic helpers (CalleeFunc, TypeOf, sortedKeysIdiom). It must not be
// used for reporting — its findings sink is nil.
func (p *ModulePass) pass(pkg *Package) *Pass {
	return &Pass{
		Fset:       p.Fset,
		Path:       pkg.Path,
		Module:     p.Module,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		directives: pkg.directives,
	}
}

// scope restricts a checker to packages matching any of its import-path
// prefixes. An empty prefix list admits every package.
type scopedChecker struct {
	checker  Checker
	prefixes []string
}

func (s scopedChecker) applies(pkgPath string) bool {
	if len(s.prefixes) == 0 {
		return true
	}
	for _, pre := range s.prefixes {
		if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") {
			return true
		}
	}
	return false
}

// Registry is an ordered set of checkers with per-checker package scopes,
// plus whole-module interprocedural checkers.
type Registry struct {
	entries    []scopedChecker
	modEntries []ModuleChecker
}

// Register adds a checker restricted to packages under the given import-path
// prefixes (all packages when none are given).
func (r *Registry) Register(c Checker, pathPrefixes ...string) {
	r.entries = append(r.entries, scopedChecker{checker: c, prefixes: pathPrefixes})
}

// RegisterModule adds a whole-module checker.
func (r *Registry) RegisterModule(c ModuleChecker) {
	r.modEntries = append(r.modEntries, c)
}

// Checkers lists the registered per-package checkers in registration order.
func (r *Registry) Checkers() []Checker {
	out := make([]Checker, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.checker
	}
	return out
}

// ModuleCheckers lists the registered whole-module checkers in registration
// order.
func (r *Registry) ModuleCheckers() []ModuleChecker {
	return append([]ModuleChecker(nil), r.modEntries...)
}

// Rule describes one registered check for machine-readable emitters (the
// SARIF rules table).
type Rule struct {
	ID  string
	Doc string
}

// Rules lists every registered check (per-package and module) sorted by ID.
func (r *Registry) Rules() []Rule {
	var rules []Rule
	for _, e := range r.entries {
		rules = append(rules, Rule{ID: e.checker.Name(), Doc: e.checker.Doc()})
	}
	for _, c := range r.modEntries {
		rules = append(rules, Rule{ID: c.Name(), Doc: c.Doc()})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	return rules
}

// DeterministicPackages are the import-path suffixes (relative to the module)
// whose computations must be reproducible from a seed: the simulated clock,
// plan construction and the solvers. The determinism checker runs only here.
var DeterministicPackages = []string{
	"internal/core",
	"internal/device",
	"internal/allocator",
	"internal/attrib",
	"internal/lp",
	"internal/milp",
	"internal/flightrec",
	"internal/overload",
	"internal/simulation",
	"internal/tsdb",
}

// SolverPackages hold the numerical pivoting code where exact float64
// equality is almost always a bug; the floateq checker runs only here.
var SolverPackages = []string{
	"internal/lp",
	"internal/milp",
}

// DefaultRegistry returns the project's standard checker set, scoped for the
// given module path.
func DefaultRegistry(module string) *Registry {
	under := func(suffixes []string) []string {
		out := make([]string, len(suffixes))
		for i, s := range suffixes {
			out[i] = module + "/" + s
		}
		return out
	}
	r := &Registry{}
	r.Register(Determinism{}, under(DeterministicPackages)...)
	r.Register(LockDiscipline{})
	r.Register(FloatEq{}, under(SolverPackages)...)
	r.Register(ErrCheck{})
	r.Register(AllowReason{})
	r.RegisterModule(Nondet{Sinks: under(DeterministicPackages)})
	r.RegisterModule(LockOrder{})
	return r
}

// RunPackage runs every applicable checker over one loaded package and
// returns its findings sorted by position then check ID.
func (r *Registry) RunPackage(pkg *Package) []Finding {
	var findings []Finding
	for _, e := range r.entries {
		if !e.applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Fset:       pkg.mod.Fset,
			Path:       pkg.Path,
			Module:     pkg.mod.Path,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			check:      e.checker.Name(),
			directives: pkg.directives,
			findings:   &findings,
		}
		e.checker.Run(pass)
	}
	SortFindings(findings)
	return findings
}

// RunModule runs every registered module checker once over the given
// packages and returns the findings sorted. The packages are re-sorted by
// import path internally, so the caller's load order cannot influence the
// report.
func (r *Registry) RunModule(mod *Module, pkgs []*Package) []Finding {
	if len(r.modEntries) == 0 {
		return nil
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var findings []Finding
	pass := &ModulePass{
		Fset:     mod.Fset,
		Module:   mod.Path,
		Pkgs:     sorted,
		findings: &findings,
	}
	for _, c := range r.modEntries {
		pass.check = c.Name()
		c.RunModule(pass)
	}
	SortFindings(findings)
	return findings
}

// RunPackages runs the per-package checkers over each package in the given
// order, then the module checkers over all of them together, and returns the
// combined findings sorted. The result is independent of the order of pkgs.
func (r *Registry) RunPackages(mod *Module, pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, r.RunPackage(pkg)...)
	}
	findings = append(findings, r.RunModule(mod, pkgs)...)
	SortFindings(findings)
	return findings
}

// Run loads the packages matching patterns under the module rooted at root
// and returns all findings in deterministic order. Module checkers see
// exactly the loaded subset: run with "./..." for whole-module analysis.
func (r *Registry) Run(root string, patterns []string) ([]Finding, error) {
	mod, pkgs, err := LoadModule(root, patterns)
	if err != nil {
		return nil, err
	}
	return r.RunPackages(mod, pkgs), nil
}

// SortFindings orders findings by file, line, column, check and message so
// reports are reproducible run to run.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
