// Package analysis is a self-contained static-checker suite (flexlint)
// for the simulator, lock and fault code, modeled on the go/analysis
// driver pattern but built only on the standard library's go/ast,
// go/parser and go/types — no external tooling, fully offline.
//
// Per-package passes encode lexical disciplines:
//
//   - spinloop: busy-wait loops must use SpinOn/SpinOnMax, never
//     hand-rolled polling.
//   - determinism: simulation-side packages must not read wall-clock
//     time, draw from the global math/rand, or iterate maps.
//
// Module passes run once over the whole-module call graph
// (callgraph.go) and reason across function boundaries:
//
//   - lockpair: every function's exits must agree on the set of held
//     locks; loop bodies are lock-neutral; thread bodies exit clean.
//     Held-set deltas propagate through resolved calls, so no
//     annotation is needed.
//   - costcoverage: no free Word.V peek and no kernel-side write is
//     reachable from simulated-thread context (functions taking a
//     *sim.Proc, Spawn bodies) outside a spin condition.
//   - hotalloc: no allocation is reachable from the event-step loop,
//     a lock's Acquire/Release, traffic dispatch, or an observer
//     callback (lock/mem observers, fault and crash injectors).
//   - traceprotocol: every path through a lock's Lock emits exactly
//     one TraceAcquire-class event, and Unlock one release-class.
//
// Deliberate exceptions are annotated in place:
//
//	//flexlint:allow <pass>[,<pass>] <reason>
//
// on the offending line or the line above. The annotation is an audit
// trail, and it is itself audited: an allow that no longer suppresses
// any finding of every pass it names is reported as stale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named pass. Exactly one of Run (per-package) and
// RunModule (whole-module, over the call graph) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Packages restricts a per-package pass to import paths with one of
	// these prefixes (nil = every package). Module passes always see the
	// whole program; the driver filters their reports to the requested
	// scope instead.
	Packages  []string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// AppliesTo reports whether the analyzer audits the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Pass is one per-package analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags  []Diagnostic
	allows *allowIndex
}

// ModulePass is one module analyzer's view of the whole program.
type ModulePass struct {
	Analyzer *Analyzer
	Prog     *Program
	Fset     *token.FileSet

	diags  []Diagnostic
	allows *allowIndex
	scope  map[string]bool // filenames eligible for reporting (nil = all)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an allow annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportf records a module-pass finding at pos unless an allow
// annotation covers it. Out-of-scope findings still mark their allow
// annotations as used (so a suppression in an unrequested package is
// not misread as stale) but are not emitted.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := mp.Fset.Position(pos)
	if mp.allows.allowed(mp.Analyzer.Name, position) {
		return
	}
	if mp.scope != nil && !mp.scope[position.Filename] {
		return
	}
	mp.diags = append(mp.diags, Diagnostic{
		Pos:      position,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ---- allow annotations ----

// allowEntry is one parsed //flexlint:allow annotation.
type allowEntry struct {
	File   string
	Line   int
	Passes []string
	Reason string
	used   map[string]bool // pass name -> suppressed something
}

// allowIndex indexes every allow annotation across the analyzed files
// and tracks which ones actually suppressed a finding.
type allowIndex struct {
	byFile map[string]map[int]*allowEntry
	list   []*allowEntry
}

// buildAllowIndex scans the packages' comments once.
func buildAllowIndex(fset *token.FileSet, pkgs []*Package) *allowIndex {
	ix := &allowIndex{byFile: make(map[string]map[int]*allowEntry)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					passes, reason, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					e := &allowEntry{
						File:   pos.Filename,
						Line:   pos.Line,
						Passes: passes,
						Reason: reason,
						used:   make(map[string]bool),
					}
					m := ix.byFile[e.File]
					if m == nil {
						m = make(map[int]*allowEntry)
						ix.byFile[e.File] = m
					}
					m[e.Line] = e
					ix.list = append(ix.list, e)
				}
			}
		}
	}
	sort.Slice(ix.list, func(i, j int) bool {
		if ix.list[i].File != ix.list[j].File {
			return ix.list[i].File < ix.list[j].File
		}
		return ix.list[i].Line < ix.list[j].Line
	})
	return ix
}

// allowed checks for an annotation naming pass on the reported line or
// the line above it, marking the matching entry used.
func (ix *allowIndex) allowed(pass string, pos token.Position) bool {
	lines := ix.byFile[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if e := lines[line]; e != nil && e.names(pass) {
			e.used[pass] = true
			return true
		}
	}
	return false
}

func (e *allowEntry) names(pass string) bool {
	for _, p := range e.Passes {
		if p == pass {
			return true
		}
	}
	return false
}

// Entries returns the annotations in deterministic order, with their
// per-pass usage state ("active" means at least one finding was
// suppressed). Valid only after the suite has run.
type AllowRecord struct {
	File   string
	Line   int
	Pass   string
	Reason string
	Active bool
}

func (ix *allowIndex) records() []AllowRecord {
	var out []AllowRecord
	for _, e := range ix.list {
		for _, p := range e.Passes {
			out = append(out, AllowRecord{
				File: e.File, Line: e.Line, Pass: p,
				Reason: e.Reason, Active: e.used[p],
			})
		}
	}
	return out
}

// stale returns diagnostics for annotations naming a pass that never
// suppressed anything (including unknown pass names — typos silently
// disable the audit trail otherwise).
func (ix *allowIndex) stale(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ix.list {
		for _, p := range e.Passes {
			switch {
			case !known[p]:
				out = append(out, Diagnostic{
					Pos:      token.Position{Filename: e.File, Line: e.Line, Column: 1},
					Analyzer: "stale-allow",
					Message:  fmt.Sprintf("//flexlint:allow names unknown pass %q", p),
				})
			case !e.used[p]:
				out = append(out, Diagnostic{
					Pos:      token.Position{Filename: e.File, Line: e.Line, Column: 1},
					Analyzer: "stale-allow",
					Message:  fmt.Sprintf("stale //flexlint:allow: no %s finding is suppressed here", p),
				})
			}
		}
	}
	return out
}

// parseAllow parses "//flexlint:allow pass1,pass2 optional reason".
func parseAllow(comment string) (passes []string, reason string, ok bool) {
	const prefix = "//flexlint:allow "
	if !strings.HasPrefix(comment, prefix) {
		return nil, "", false
	}
	rest := strings.TrimPrefix(comment, prefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "", false
	}
	passes = strings.Split(fields[0], ",")
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	return passes, reason, true
}

// hasDirective reports whether a doc comment carries the directive on
// a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// ---- the suite ----

// Analyzers returns the flexlint suite. The audited package sets of
// the per-package passes encode the repo's layering; module passes see
// everything and scope their own roots semantically (lock
// implementations, thread contexts, the step loop).
func Analyzers() []*Analyzer {
	simSide := []string{
		"repro/internal/sim", "repro/internal/locks", "repro/internal/core",
		"repro/internal/fault", "repro/internal/harness", "repro/internal/vtime",
		"repro/internal/check", "repro/internal/obs", "repro/internal/monitor",
	}
	return []*Analyzer{
		{
			Name:     "spinloop",
			Doc:      "hand-rolled busy-wait loops that should use SpinOn/SpinOnMax",
			Packages: []string{"repro/internal/locks", "repro/internal/core", "repro/internal/fault"},
			Run:      runSpinLoop,
		},
		{
			Name:      "lockpair",
			Doc:       "exit paths disagreeing on held locks, lock-leaking loops, or thread bodies exiting locked (interprocedural)",
			RunModule: runLockPair,
		},
		{
			Name:     "determinism",
			Doc:      "wall-clock time, global math/rand, or map iteration in digest-relevant code",
			Packages: simSide,
			Run:      runDeterminism,
		},
		{
			Name:      "costcoverage",
			Doc:       "free Word.V peeks or kernel-side writes reachable from simulated-thread context outside spin conditions (interprocedural)",
			RunModule: runCostCoverage,
		},
		{
			Name:      "hotalloc",
			Doc:       "allocations reachable from the step loop, lock acquire/release, traffic dispatch, or observer callbacks (interprocedural)",
			RunModule: runHotAlloc,
		},
		{
			Name:      "traceprotocol",
			Doc:       "lock implementations whose acquire/release paths do not emit exactly one trace event (interprocedural)",
			RunModule: runTraceProtocol,
		},
	}
}

// AnalyzerNames returns the set of valid pass names (plus the driver's
// own stale-allow pseudo-pass).
func AnalyzerNames() map[string]bool {
	names := map[string]bool{"stale-allow": true}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// sortDiags orders findings by file, line, column, pass, message.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// RunAnalyzer applies one analyzer to one loaded package and returns
// its findings sorted by position. Module analyzers see a one-package
// program — this is the fixture-test entry point; whole-module runs go
// through Suite.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	allows := buildAllowIndex(pkg.Fset, []*Package{pkg})
	var diags []Diagnostic
	if a.Run != nil {
		pass := &Pass{
			Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
			Pkg: pkg.Types, Info: pkg.Info, allows: allows,
		}
		a.Run(pass)
		diags = pass.diags
	} else {
		mp := &ModulePass{
			Analyzer: a, Prog: BuildProgram([]*Package{pkg}),
			Fset: pkg.Fset, allows: allows,
		}
		a.RunModule(mp)
		diags = mp.diags
	}
	sortDiags(diags)
	return diags
}

// Suite is one whole-module lint run: every package loaded, the call
// graph built, one shared allow index.
type Suite struct {
	Loader *Loader
	Pkgs   []*Package
	Prog   *Program

	allows *allowIndex
}

// NewSuite loads every module package and builds the program.
func NewSuite(loader *Loader) (*Suite, error) {
	paths, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return &Suite{
		Loader: loader,
		Pkgs:   pkgs,
		Prog:   BuildProgram(pkgs),
		allows: buildAllowIndex(loader.Fset, pkgs),
	}, nil
}

// Run executes the whole suite. scope restricts *reported* findings to
// the given import paths (nil or all paths = whole module); module
// passes always analyze the whole program regardless. The stale-allow
// audit only runs on whole-module scope, because a partial run cannot
// prove an annotation unused.
func (s *Suite) Run(scope []string) []Diagnostic {
	inScope := make(map[string]bool)
	for _, p := range scope {
		inScope[p] = true
	}
	wholeModule := scope == nil || len(inScope) == len(s.Pkgs)

	var diags []Diagnostic
	var scopeFiles map[string]bool
	if !wholeModule {
		scopeFiles = make(map[string]bool)
		for _, pkg := range s.Pkgs {
			if !inScope[pkg.Path] {
				continue
			}
			for _, f := range pkg.Files {
				scopeFiles[s.Loader.Fset.Position(f.Pos()).Filename] = true
			}
		}
	}

	for _, a := range Analyzers() {
		if a.Run != nil {
			for _, pkg := range s.Pkgs {
				if !a.AppliesTo(pkg.Path) {
					continue
				}
				pass := &Pass{
					Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
					Pkg: pkg.Types, Info: pkg.Info, allows: s.allows,
				}
				a.Run(pass)
				if wholeModule || inScope[pkg.Path] {
					diags = append(diags, pass.diags...)
				}
			}
			continue
		}
		mp := &ModulePass{
			Analyzer: a, Prog: s.Prog, Fset: s.Loader.Fset,
			allows: s.allows, scope: scopeFiles,
		}
		a.RunModule(mp)
		diags = append(diags, mp.diags...)
	}

	if wholeModule {
		diags = append(diags, s.allows.stale(AnalyzerNames())...)
	}
	sortDiags(diags)
	return diags
}

// Allows returns every allow annotation with its post-run usage state
// (call after Run).
func (s *Suite) Allows() []AllowRecord {
	return s.allows.records()
}

// Check runs every applicable per-package analyzer over one package
// (module passes need a Suite and are skipped here).
func Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range Analyzers() {
		if a.Run == nil || !a.AppliesTo(pkg.Path) {
			continue
		}
		out = append(out, RunAnalyzer(a, pkg)...)
	}
	return out
}

// ---- shared type helpers ----

// isSimNamed reports whether t (after pointer indirection) is the named
// type internal/sim.<name>.
func isSimNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return isSimPath(obj.Pkg().Path())
}

// isSimPath reports whether an import path names internal/sim (the
// module's, or a fixture stand-in mounted under a path ending in it).
func isSimPath(path string) bool {
	return path == "repro/internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// simMethodCall returns the method name when call is x.M(...) with x a
// *sim.Word, *sim.Proc or *sim.Machine (per recv), else "".
func simMethodCall(info *types.Info, call *ast.CallExpr, recv string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSimNamed(tv.Type, recv) {
		return ""
	}
	return sel.Sel.Name
}
