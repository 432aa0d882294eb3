package dragster

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportKeep lists the exported functions, methods and types and the
// struct fields, exported or not, that no production file uses (for a
// field: reads), each with the reason it stays. Keys are
// "<import path>.<Name>", "<import path>.<Receiver>.<Method>" or
// "<import path>.<Type>.<Field>".
var deadExportKeep = map[string]string{
	// Test seams and oracles.
	"dragster/internal/dag.Graph.Gradient":                 "the throughput gradient example_test.go documents",
	"dragster/internal/gp.Regressor.PosteriorBatch":        "batch oracle the single-point posterior is tested against",
	"dragster/internal/gp.Regressor.LogMarginalLikelihood": "LML oracle for the hyperparameter search tests",
	"dragster/internal/gp.Regressor.InformationGain":       "Γ_T, the information gain the Theorem-1 regret bound is stated in",
	"dragster/internal/gp.Regressor.Kernel":                "kernel seam the refit tests compare and the kernel-counting tests wrap",
	"dragster/internal/gp.Regressor.Observations":          "the rows and their mean targets, which the warm-start and row-merge tests fingerprint",
	"dragster/internal/linalg.Identity":                    "test oracle for the factorization round trips",
	"dragster/internal/linalg.Matrix.Mul":                  "test oracle: builds SPD inputs and checks L·Lᵀ = A",
	"dragster/internal/linalg.Matrix.MulVec":               "test oracle for the solves",
	"dragster/internal/linalg.Cholesky.SolveVec":           "allocating form of SolveVecInto, the solve tests' oracle",
	"dragster/internal/linalg.Cholesky.SolveLowerVec":      "test oracle for the in-place triangular solves",
	"dragster/internal/streamsim.Engine.CPUView":           "test seam onto the engine's per-operator CPU",
	"dragster/internal/flink.Job.EffectiveCPUMilli":        "test seam onto each operator's per-pod CPU template; the slot report carries it in production",
	"dragster/internal/streamsim.Engine.TasksView":         "test seam onto the engine's per-operator tasks",
	"dragster/internal/streamsim.Engine.TrueCapacity":      "noise-free capacity oracle the tests check against",
	"dragster/internal/streamsim.Engine.BufferedTotal":     "backlog oracle for the buffer-cap and draining tests",
	"dragster/internal/ucb.Searcher.PosteriorAt":           "posterior seam a benchmark reads",
	"dragster/internal/telemetry.Registry.CounterValue":    "test seam onto one counter",
	"dragster/internal/telemetry.Registry.GaugeValue":      "test seam onto one gauge",
	"dragster/internal/core.Controller.StaleSkips":         "test seam onto the stale-round count",
	"dragster/internal/daemon.FleetDaemon.StepN":           "test helper that steps several fleet rounds at once",
	"dragster/internal/experiment.Runner.ChaosTrace":       "test seam onto the injected fault trace",
	"dragster/internal/fleet.Manager.TraceBytes":           "test seam onto the encoded event trace",
	"dragster/internal/fleet/event.DecodeAll":              "the codec's stream decoder, which the fuzz round trip drives",
	"dragster/internal/chaos.Spec.AtSecond":                "fluent chaos Spec method; tests assemble fault schedules from these",
	"dragster/internal/chaos.Spec.CrashLastNode":           "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.DelayScheduler":          "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.OOMKillPod":              "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.MaxSlot":                 "sizes a run to a built Spec's schedule",
	"dragster/internal/cluster.Cluster.Deployments":        "test seam onto the deployment list",
	"dragster/internal/cluster.Cluster.PendingPods":        "test seam onto unscheduled pods",
	"dragster/internal/stats.RNG.Uniform":                  "the RNG's uniform draw, kept beside Normal and LogNormal",
	"dragster/internal/stats.RNG.Float64":                  "the unit uniform draw dagtest's random graphs are built from",
	"dragster/internal/stats.source.Int63":                 "rand.Source's draw; math/rand calls it only through that interface",
	"dragster/internal/stats.probeSource.Int63":            "rand.Source's draw; the init-time ziggurat probe's NormFloat64 calls it only through that interface",
	"dragster/internal/stats.probeSource.Seed":             "rand.Source's seeding, required of the probe's source though the probe never seeds",
	"dragster/internal/chaos.Engine.Metrics":               "test seam onto the engine's fault counters, read by the external chaos tests",
	"dragster/internal/dag.Graph.Name":                     "node names for sources and sinks, which the external sweep tests rebuild graphs from",
	"dragster/internal/dag.LearnedLinear.PredictionGap":    "the Theorem-2 convergence measure the learned-throughput tests check",
	"dragster/internal/linalg.Cholesky.At":                 "test oracle: the bit-identity tests and fuzz targets compare factors entry by entry",
	"dragster/internal/linalg.Matrix.AddScaledIdentity":    "test oracle beside T and Mul: the ridge that makes the tests' random BᵀB inputs SPD",
	"dragster/internal/linalg.Matrix.T":                    "test oracle beside Mul: builds SPD inputs BᵀB and checks L·Lᵀ = A",
	"dragster/internal/experiment.MeanLatency":             "the Little's-law latency summary beside TotalProcessed and CostPerBillion; the trace and Theorem-2 tests compare policies by it",
	"dragster/internal/experiment.RepeatResult.Runs":       "the per-seed results behind the aggregates, which the worker-count determinism test compares byte for byte",

	// Run results' handles on the run's one metrics registry.
	"dragster/internal/experiment.Result.Metrics": "a Run caller's only handle on the run's registry",
	"dragster/internal/fleet.Result.Metrics":      "a fleet Run caller's handle on the run's registry, beside experiment.Result.Metrics; the fleet tests fingerprint counters through it",

	// Decision provenance (the ROADMAP's observability item).
	"dragster/internal/core.LastTargets.Beta":        "decision provenance: the UCB weight of the last decision",
	"dragster/internal/core.LastTargets.Bottlenecks": "decision provenance: the operators the last decision reconfigured",

	// Features with no caller yet.
	"dragster/internal/daemon.ResumeFleet": "consumes GET /fleet/checkpoint for failover",
}

// callerOnly names the directories whose code counts as a caller but
// whose declarations are not checked: the root package's aliases are the
// public API, and perfbench/ is a module of its own that drives the
// internal packages.
func callerOnly(dir string) bool {
	return dir == "." || dir == "perfbench" || strings.HasPrefix(dir, "perfbench/")
}

// TestNoDeadExports fails on any exported function, method or type that
// no production file uses, on any field of a package-level struct type,
// exported or not, that no production file reads, and on any keep-list
// entry that is stale because its symbol is gone or production code uses
// it after all.
func TestNoDeadExports(t *testing.T) {
	dead, declared, err := deadExports(".", "dragster", callerOnly)
	if err != nil {
		t.Fatal(err)
	}
	isDead := map[string]bool{}
	for _, k := range dead {
		isDead[k] = true
		if deadExportKeep[k] == "" {
			t.Errorf("%s has no production caller or reader: delete it, or keep it in deadExportKeep with a reason", k)
		}
	}
	var keys []string
	for k := range deadExportKeep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case !declared[k]:
			t.Errorf("deadExportKeep names %s, which is no longer declared", k)
		case !isDead[k]:
			t.Errorf("deadExportKeep names %s, which production code uses: drop the entry", k)
		}
	}
}

// TestDeadExportsMatchByObject runs the pass over a fixture in which a
// dead method shares its name with a live method of another type, and a
// method is reached only through an interface. A match by name would
// pass the first; a match by object must flag it and pass the second.
// The fixture's struct fields pin what counts as a read: a field only
// set in literals and assignments, only incremented, or only appended to
// itself is dead, exported or not and in an exported type or not; a read
// field, a JSON-tagged one and every field of a struct used as a map key
// or compared with == are not.
func TestDeadExportsMatchByObject(t *testing.T) {
	dead, _, err := deadExports(filepath.Join("testdata", "deadexport"), "fixture", func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture.Dead.Close", "fixture.Tally.Bumped", "fixture.Tally.Log", "fixture.Tally.Set", "fixture.Tally.note", "fixture.tally.hits"}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
}

// deadExports type-checks every non-test package under root (import
// path mod plus the directory) and returns, sorted, the exported
// functions, methods and types whose object no production file uses
// outside its own declaration, and the fields of package-level struct
// types that no production file reads, together with every checked
// declaration. Keys have the deadExportKeep form. A method also counts as
// used when it satisfies an interface one of whose methods production
// code calls, or one of stdCallbacks. A field with a json tag counts as
// read, because the encoder reads it, and so does every field of a struct
// used as a map key or compared with ==; fieldWrites lists the uses that
// only write. Directories named testdata or dagtest (test support) are
// skipped.
func deadExports(root, mod string, callerOnly func(dir string) bool) (dead []string, declared map[string]bool, err error) {
	l := &typesLoader{
		root: root,
		mod:  mod,
		fset: token.NewFileSet(),
		pkgs: map[string]*loadedPkg{},
		std:  map[string]*types.Package{},
	}
	l.fallback = importer.ForCompiler(l.fset, "source", nil)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || name == "dagtest" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var all []*loadedPkg
	for _, dir := range dirs {
		p, err := l.load(l.importPath(dir))
		if err != nil {
			return nil, nil, err
		}
		if p != nil {
			p.callerOnly = callerOnly(dir)
			all = append(all, p)
		}
	}

	// Declarations to check, and for each the source ranges whose uses
	// of it do not count: its own declaration and, for a type, the
	// receivers of its methods.
	type span struct{ from, to token.Pos }
	keyOf := map[types.Object]string{}
	used := map[types.Object]bool{}
	own := map[types.Object][]span{}
	declared = map[string]bool{}
	for _, p := range all {
		if p.callerOnly {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						if tn, ok := p.info.Uses[recvIdent(d.Recv.List[0].Type)].(*types.TypeName); ok {
							own[tn] = append(own[tn], span{d.Recv.Pos(), d.Recv.End()})
						}
					}
					if !d.Name.IsExported() {
						continue
					}
					key := p.pkg.Path() + "." + d.Name.Name
					if d.Recv != nil {
						key = p.pkg.Path() + "." + recvIdent(d.Recv.List[0].Type).Name + "." + d.Name.Name
					}
					obj := p.info.Defs[d.Name]
					keyOf[obj], declared[key] = key, true
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						key := p.pkg.Path() + "." + ts.Name.Name
						if ts.Name.IsExported() {
							obj := p.info.Defs[ts.Name]
							keyOf[obj], declared[key] = key, true
							own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								fobj := p.info.Defs[name]
								keyOf[fobj], declared[key+"."+name.Name] = key+"."+name.Name, true
								used[fobj] = jsonTagged(f.Tag)
							}
						}
					}
				}
			}
		}
	}

	// Uses, and the interface methods production code calls.
	ifaceCalls := map[*types.Func]bool{} // interface methods called
	for _, p := range all {
		readCompared(p, used)
		writes := fieldWrites(p)
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls[fn] = true
				}
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if obj = v.Origin(); writes[id] {
					continue
				}
			}
			if _, ok := keyOf[obj]; !ok || used[obj] {
				continue
			}
			self := false
			for _, s := range own[obj] {
				self = self || s.from <= id.Pos() && id.Pos() < s.to
			}
			used[obj] = !self
		}
	}
	stdIfaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, cb := range stdCallbacks {
		if pkg := l.std[cb[0]]; pkg != nil {
			stdIfaces = append(stdIfaces, pkg.Scope().Lookup(cb[1]).Type())
		}
	}
	for _, t := range stdIfaces {
		it := t.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			ifaceCalls[it.Method(i)] = true
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams() != nil {
			return false
		}
		for im := range ifaceCalls {
			if im.Name() != fn.Name() {
				continue
			}
			it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}
	for obj, key := range keyOf {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
			continue
		}
		dead = append(dead, key)
	}
	sort.Strings(dead)
	return dead, declared, nil
}

// fieldWrites returns the field identifiers in p's files whose use only
// writes the field: a composite-literal key, the target of an assignment,
// an op-assignment or ++/--, and the x.F inside x.F = append(x.F, …).
func fieldWrites(p *loadedPkg) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			w[sel.Sel] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							w[id] = true
						}
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					target(lhs)
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					call, ok := n.Rhs[i].(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						continue
					}
					if fn, ok := call.Fun.(*ast.Ident); ok {
						if _, builtin := p.info.Uses[fn].(*types.Builtin); builtin && fn.Name == "append" &&
							types.ExprString(call.Args[0]) == types.ExprString(lhs) {
							target(call.Args[0])
						}
					}
				}
			}
			return true
		})
	}
	return w
}

// readCompared marks as read every field of the types p's files compare
// as a whole: the key types of its maps and the operands of its == and
// != expressions. Such a comparison reads every field of a struct.
func readCompared(p *loadedPkg, used map[types.Object]bool) {
	for e, tv := range p.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readFields(m.Key(), used)
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) && p.info.Types[b.X].Type != nil {
			readFields(p.info.Types[b.X].Type, used)
		}
	}
}

// readFields marks every field of t as read, and the fields of the
// structs and arrays it holds by value, as comparing a t does.
func readFields(t types.Type, used map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			used[u.Field(i).Origin()] = true
			readFields(u.Field(i).Type(), used)
		}
	case *types.Array:
		readFields(u.Elem(), used)
	}
}

// jsonTagged reports whether a struct field's tag names it for
// encoding/json.
func jsonTagged(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, err := strconv.Unquote(tag.Value)
	if err != nil {
		return false
	}
	name, ok := reflect.StructTag(s).Lookup("json")
	return ok && name != "-"
}

// stdCallbacks are the standard-library interfaces, besides error, whose
// methods the standard library calls out of the pass's sight: fmt calls
// String, flag calls Set, net/http calls ServeHTTP. An interface counts
// only when the module imports its package.
var stdCallbacks = [][2]string{{"fmt", "Stringer"}, {"flag", "Value"}, {"net/http", "Handler"}}

// recvIdent is the receiver's type name without pointer or type
// parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvIdent(e.X)
	case *ast.IndexExpr:
		return recvIdent(e.X)
	case *ast.IndexListExpr:
		return recvIdent(e.X)
	case *ast.Ident:
		return e
	}
	return nil
}

// typesLoader type-checks the module's packages from source on demand
// and resolves every other import from the standard library's source.
type typesLoader struct {
	root, mod string
	fset      *token.FileSet
	pkgs      map[string]*loadedPkg     // module import path → package (nil: no Go files)
	std       map[string]*types.Package // non-module packages the module imports
	fallback  types.Importer
}

type loadedPkg struct {
	pkg        *types.Package
	files      []*ast.File
	info       *types.Info
	callerOnly bool
}

func (l *typesLoader) importPath(dir string) string {
	if dir == "." {
		return l.mod
	}
	return l.mod + "/" + dir
}

// Import implements types.Importer.
func (l *typesLoader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		pkg, err := l.fallback.Import(path)
		if err == nil {
			l.std[path] = pkg
		}
		return pkg, err
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, &build.NoGoError{Dir: path}
	}
	return p.pkg, nil
}

// load parses and type-checks the module package at path, honouring
// build constraints; it returns nil for a directory without Go files.
func (l *typesLoader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
