package analysis

// The stdlib-only package loader: parse a directory with go/parser,
// type-check with go/types, resolve imports without golang.org/x/tools
// or network access. Module-local imports are located through go.mod
// and type-checked recursively from source; everything else (the
// standard library) goes through the compiler's source importer, which
// reads $GOROOT/src directly — fully offline.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("repro/internal/sim", or a fixture path)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and caches packages for one module.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod

	cache  map[string]*Package
	source types.ImporterFrom
}

// NewLoader builds a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	srcImp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		cache:      make(map[string]*Package),
		source:     srcImp,
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadDir loads the package in dir. The import path is derived from the
// module when dir is inside it; otherwise (fixtures under testdata) the
// given fallback path names the package.
func (l *Loader) LoadDir(dir, fallbackPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := fallbackPath
	if rel, err := filepath.Rel(l.ModuleRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, dir)
}

// LoadPath loads a module-local package by import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	dir, err := l.dirOf(path)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir)
}

func (l *Loader) dirOf(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	rel, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		return "", fmt.Errorf("analysis: %q is not in module %s", path, l.ModulePath)
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), nil
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, nil
	}
	l.cache[path] = nil // cycle marker

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type-checking: module-local
// packages recurse through the loader, the rest through the source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.source.ImportFrom(path, srcDir, mode)
}

// ModulePackages returns the import paths of every package in the
// module, sorted, skipping testdata, hidden directories, and (optional)
// example trees.
func (l *Loader) ModulePackages() ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
