package load_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/load"
)

func TestLoad(t *testing.T) {
	res, err := load.Load(".", []string{"repro/internal/basket"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["repro/internal/basket"] {
		t.Errorf("targets = %v, want repro/internal/basket", res.Targets)
	}
	// The test runs in internal/analysis/load, three levels below the
	// module root, whatever directory the module was checked out into.
	root, err := filepath.Abs("../../..")
	if err == nil {
		root, err = filepath.EvalSymlinks(root)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.ModuleDir != root {
		t.Errorf("module dir = %q, want %q", res.ModuleDir, root)
	}
	// Dependency order: every in-module import of a package must appear
	// before the package itself.
	seen := map[string]bool{}
	byPath := map[string]bool{}
	for _, p := range res.Pkgs {
		byPath[p.Path] = true
	}
	for _, p := range res.Pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Files) == 0 {
			t.Fatalf("%s: incompletely loaded", p.Path)
		}
		for _, imp := range p.Types.Imports() {
			if byPath[imp.Path()] && !seen[imp.Path()] {
				t.Errorf("%s: module import %s not loaded before importer", p.Path, imp.Path())
			}
		}
		seen[p.Path] = true
	}
}
