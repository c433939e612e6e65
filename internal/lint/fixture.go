package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// The fixture loader mirrors x/tools' analysistest: packages live under
// a GOPATH-style root (testdata/src) and their import path is their
// directory relative to that root. It is also what `dominolint -dir`
// uses, so the CI seeded-violation gate exercises the same loader as
// the analyzer tests (whose `// want "regex"` comments state the
// expected findings line by line).

// fixtureImporter resolves imports first against the fixture root, then
// the standard library via the shared source importer.
type fixtureImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

func newFixtureImporter(root string) *fixtureImporter {
	fset := token.NewFileSet()
	return &fixtureImporter{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*Package),
	}
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, err := fi.load(path); err == nil {
		return pkg.Types, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return fi.std.Import(path)
}

// load parses and type-checks the fixture package at root/path. A
// missing directory returns an os.IsNotExist error so Import can fall
// back to the standard library.
func (fi *fixtureImporter) load(path string) (*Package, error) {
	if pkg, ok := fi.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: fi}
	tpkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %v", path, err)
	}
	pkg := &Package{Path: path, Fset: fi.fset, Files: files, Types: tpkg, Info: info}
	fi.cache[path] = pkg
	return pkg, nil
}

// LoadFixture loads the package at root/path (GOPATH-style fixture
// layout; path also becomes the package's import path, so its last
// element selects analyzer scope).
func LoadFixture(root, path string) (*Package, error) {
	return newFixtureImporter(root).load(path)
}

// LoadDir loads dir as a fixture package. When dir sits under a "src"
// ancestor the import path is taken relative to it (so sibling fixture
// imports resolve); otherwise the directory base alone is the path.
func LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path := filepath.Dir(abs), filepath.Base(abs)
	for p := filepath.Dir(abs); ; {
		parent := filepath.Dir(p)
		if filepath.Base(p) == "src" {
			root = p
			rel, err := filepath.Rel(p, abs)
			if err != nil {
				return nil, err
			}
			path = filepath.ToSlash(rel)
			break
		}
		if parent == p {
			break
		}
		p = parent
	}
	return LoadFixture(root, path)
}
