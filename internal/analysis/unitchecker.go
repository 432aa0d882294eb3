package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// This file implements the `go vet -vettool` unit-checker protocol with
// the standard library only, mirroring the contract of
// golang.org/x/tools/go/analysis/unitchecker:
//
//   1. cmd/go invokes the tool once with -V=full; the tool prints a line
//      ending in "buildID=<hash>" that fingerprints its executable so vet
//      results can be cached.
//   2. For every package in the build graph, cmd/go writes a JSON config
//      (*.cfg) describing the package's files and the export data of its
//      dependencies, and invokes the tool with the config path as the last
//      argument.
//   3. The tool type-checks the package against that export data, runs its
//      analyzers, writes the (empty — we use no cross-package facts) facts
//      file at VetxOutput, prints diagnostics to stderr, and exits
//      non-zero if there were any.

// vetConfig is the part of the JSON schema cmd/go writes for each package
// that the checker reads. Field names match cmd/go/internal/work's
// vetConfig struct; encoding/json skips the fields not declared here.
type vetConfig struct {
	ID                        string
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for cmd/dragsterlint. It dispatches between the
// -V=full handshake, the -merge-sarif aggregation mode, and per-package
// analysis, and returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	var cfgFile, mergeFile string
	var names []string
	var emitJSON, emitSARIF, merge bool
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			return printVersion(stdout, stderr)
		case arg == "-flags":
			// cmd/go probes supported flags in JSON and re-exposes them on
			// the `go vet` command line; advertising -check here is what
			// makes `go vet -vettool=... -check=simclock ./...` work, and
			// likewise -json / -sarif for machine-readable output.
			fmt.Fprintln(stdout, `[{"Name":"check","Bool":false,"Usage":"comma-separated list of analyzers to run (default: all)"},`+
				`{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON on stdout (exit 0)"},`+
				`{"Name":"sarif","Bool":true,"Usage":"emit diagnostics as one SARIF 2.1.0 document per package on stdout (exit 0)"}]`)
			return 0
		case arg == "-json" || arg == "-json=true":
			emitJSON = true
		case arg == "-sarif" || arg == "-sarif=true":
			emitSARIF = true
		case arg == "-json=false" || arg == "-sarif=false":
			// explicit defaults
		case arg == "-merge-sarif":
			merge = true
		case strings.HasPrefix(arg, "-merge-sarif="):
			merge = true
			mergeFile = strings.TrimPrefix(arg, "-merge-sarif=")
		case strings.HasPrefix(arg, "-check="):
			for _, n := range strings.Split(strings.TrimPrefix(arg, "-check="), ",") {
				if n != "" {
					names = append(names, n)
				}
			}
		case strings.HasPrefix(arg, "-"):
			// Ignore pass-through vet flags we don't implement.
		default:
			if merge && mergeFile == "" {
				mergeFile = arg
			} else {
				cfgFile = arg
			}
		}
	}
	if merge {
		return runMergeSARIF(mergeFile, stdout, stderr)
	}
	if emitJSON && emitSARIF {
		fmt.Fprintln(stderr, "dragsterlint: -json and -sarif are mutually exclusive")
		return 2
	}
	if cfgFile == "" {
		fmt.Fprintln(stderr, "dragsterlint: no *.cfg file argument; run via `go vet -vettool=$(which dragsterlint) ./...` or `make lint`")
		return 2
	}
	analyzers, err := ByName(names)
	if err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 2
	}
	diags, fset, cfg, err := runUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 1
	}
	switch {
	case emitJSON:
		if cfg == nil {
			return 0 // dependency-only or foreign package: nothing to report
		}
		if err := writeJSON(stdout, cfg.ID, fset, diags); err != nil {
			fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
			return 1
		}
		return 0
	case emitSARIF:
		if cfg == nil {
			return 0
		}
		if err := writeSARIF(stdout, analyzers, fset, diags); err != nil {
			fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
			return 1
		}
		return 0
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Rule, d.Message)
	}
	return 2
}

// runMergeSARIF implements `dragsterlint -merge-sarif [stream-file]`:
// stdin (or the file) holds concatenated per-package SARIF documents;
// stdout gets one merged document.
func runMergeSARIF(path string, stdout, stderr io.Writer) int {
	in := io.Reader(os.Stdin)
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	if err := MergeSARIF(in, stdout); err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 1
	}
	return 0
}

// printVersion implements the -V=full handshake: the final field must be a
// content fingerprint of the executable, so that rebuilding the tool
// invalidates cmd/go's vet cache.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(stderr, "dragsterlint: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "dragsterlint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
	return 0
}

// runUnit analyzes the single package described by the config file. The
// returned config is nil when the invocation was dependency-only or the
// package lies outside this module.
func runUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, *vetConfig, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, nil, nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, nil, nil, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	// Facts file first: cmd/go expects it to exist even when we have
	// nothing to say (we exchange no cross-package facts).
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, nil, nil, err
		}
	}
	// Dependency-only invocation, or a package outside this module (the
	// standard library is full of time.Now): nothing to analyze.
	path := cfg.ImportPath
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i] // "pkg [pkg.test]" test variants
	}
	if cfg.VetxOnly || (path != ModulePath && !hasPathPrefix(path, ModulePath)) {
		return nil, nil, nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil, nil, nil
			}
			return nil, nil, nil, err
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	pass := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
	return RunSuite(pass, analyzers), fset, &cfg, nil
}

// typeCheck type-checks the package against the export data of its
// compiled dependencies, exactly as the compiler saw them.
func typeCheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is already canonical (post-ImportMap).
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, runtime.GOARCH),
		Error:     func(error) {}, // collect via the returned error; keep going
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// newTypesInfo allocates the fact tables the analyzers consume.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
