package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHotpathFixture(t *testing.T) {
	runFixture(t, "dragster/internal/hotpathbad", HotpathAnalyzer())
}

// TestHotpathSeededName verifies the seeded list fires without an
// annotation: the fixture's Engine.Tick is injected as a seed for the
// duration of the test, while Engine.Other stays exempt.
func TestHotpathSeededName(t *testing.T) {
	const seed = "dragster/internal/hotpathseed.(*Engine).Tick"
	hotpathSeeds[seed] = true
	defer delete(hotpathSeeds, seed)
	runFixture(t, "dragster/internal/hotpathseed", HotpathAnalyzer())
}

// TestHotpathSeedsResolve pins the real seeded names to the functions
// they must match: a renamed Tick loop or posterior query must not
// silently drop out of the hot set. Each seed's package directory is
// parsed (syntax only, non-test files) and must declare a function whose
// name, formed as the analyzer forms it, is the seed.
func TestHotpathSeedsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]bool{}
	parsed := map[string]bool{}
	for seed := range hotpathSeeds {
		if !strings.HasPrefix(seed, ModulePath+"/") {
			t.Errorf("seed %q is not under the module path", seed)
			continue
		}
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndex(seed, "/")
		dot := strings.Index(seed[slash:], ".")
		if dot < 0 {
			t.Errorf("seed %q names no function", seed)
			continue
		}
		pkg := seed[:slash+dot]
		if parsed[pkg] {
			continue
		}
		parsed[pkg] = true
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, ModulePath+"/")))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("seed %q: %v", seed, err)
			continue
		}
		fset := token.NewFileSet()
		for _, ent := range entries {
			name := ent.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[declName(pkg, fd)] = true
				}
			}
		}
	}
	for seed := range hotpathSeeds {
		if !declared[seed] {
			t.Errorf("seed %q matches no declaration in its package", seed)
		}
	}
	if len(hotpathSeeds) < 8 {
		t.Errorf("seeded hot-path list shrank to %d entries; the tick loop, GP posterior, "+
			"UCB select, and cluster metrics paths must stay seeded", len(hotpathSeeds))
	}
}

func TestFuncFullName(t *testing.T) {
	// Exercised end-to-end by the fixtures; here pin the receiver forms
	// via the fixture ASTs.
	loader := newFixtureLoader()
	pass, err := loader.load("dragster/internal/hotpathseed")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"dragster/internal/hotpathseed.(*Engine).Tick":  true,
		"dragster/internal/hotpathseed.(*Engine).Other": true,
	}
	got := map[string]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				got[funcFullName(pass, fd)] = true
			}
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("funcFullName never produced %q (got %v)", name, got)
		}
	}
}
