// Command flexlint runs the repo's static-checker suite (see
// internal/analysis): spin-loop hygiene, interprocedural Lock/Unlock
// pairing, determinism (no wall clock, no global rand, no unordered map
// iteration), cost coverage (no free peeks or kernel writes on
// simulated-thread paths), hot-path allocation freedom, and the
// one-acquire/one-release trace protocol.
//
// Usage:
//
//	flexlint ./...                 # whole module
//	flexlint ./internal/locks ...  # restrict reports to package dirs
//	flexlint -json ./...           # machine-readable findings
//	flexlint -allows               # audit every //flexlint:allow
//	flexlint -list                 # print the suite and audited scopes
//
// Exit status 1 when any finding is reported. Deliberate exceptions are
// annotated in place: //flexlint:allow <pass>[,<pass>] <reason>; an
// annotation that suppresses nothing is itself a finding (stale-allow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// jsonFinding is the -json wire shape, deterministic in field order and
// record order (file, line, column, pass, message).
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// jsonAllow is the -allows -json wire shape.
type jsonAllow struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Pass   string `json:"pass"`
	Reason string `json:"reason"`
	Active bool   `json:"active"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and audited package scopes")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	allows := flag.Bool("allows", false, "audit //flexlint:allow annotations instead of reporting findings")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			scope := "all packages"
			if len(a.Packages) > 0 {
				scope = strings.Join(a.Packages, ", ")
			}
			kind := "package"
			if a.RunModule != nil {
				kind = "module"
			}
			fmt.Printf("%-13s [%s] %s\n%15s(audits: %s)\n", a.Name, kind, a.Doc, "", scope)
		}
		return
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}

	// Resolve package arguments to import paths; nil scope = whole
	// module (module passes always analyze the whole program either
	// way — scope only filters what is reported).
	var scope []string
	wholeModule := true
	for _, arg := range flag.Args() {
		switch {
		case arg == "./..." || arg == "...":
			// explicit whole module
		case strings.HasPrefix(arg, loader.ModulePath):
			scope = append(scope, arg)
			wholeModule = false
		default:
			abs, err := filepath.Abs(arg)
			if err != nil {
				fatal(err)
			}
			rel, err := filepath.Rel(loader.ModuleRoot, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				fatal(fmt.Errorf("flexlint: %s is outside module %s", arg, loader.ModulePath))
			}
			p := loader.ModulePath
			if rel != "." {
				p += "/" + filepath.ToSlash(rel)
			}
			scope = append(scope, p)
			wholeModule = false
		}
	}
	if wholeModule {
		scope = nil
	}

	suite, err := analysis.NewSuite(loader)
	if err != nil {
		fatal(err)
	}
	diags := suite.Run(scope)

	if *allows {
		reportAllows(loader, suite, *asJSON)
		return
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(loader.ModuleRoot, name); err == nil {
			return r
		}
		return name
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Pass: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = rel(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flexlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// reportAllows prints every //flexlint:allow with its post-run usage
// state. Stale entries (never suppressed anything) already surface as
// stale-allow findings in a normal run; this mode is the full audit
// trail — file, line, pass, reason, active.
func reportAllows(loader *analysis.Loader, suite *analysis.Suite, asJSON bool) {
	records := suite.Allows()
	rel := func(name string) string {
		if r, err := filepath.Rel(loader.ModuleRoot, name); err == nil {
			return r
		}
		return name
	}
	if asJSON {
		out := make([]jsonAllow, 0, len(records))
		for _, r := range records {
			out = append(out, jsonAllow{
				File: rel(r.File), Line: r.Line, Pass: r.Pass,
				Reason: r.Reason, Active: r.Active,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	for _, r := range records {
		state := "active"
		if !r.Active {
			state = "STALE"
		}
		reason := r.Reason
		if reason == "" {
			reason = "(no reason given)"
		}
		fmt.Printf("%s:%d: [%s] %s — %s\n", rel(r.File), r.Line, r.Pass, state, reason)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
