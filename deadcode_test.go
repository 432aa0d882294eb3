package dragster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportKeep lists the exported functions, methods and types that no
// production file calls, each with the reason it stays. Keys are
// "<import path>.<Name>" or "<import path>.<Receiver>.<Method>"; a key
// naming a file keeps every declaration in it.
var deadExportKeep = map[string]string{
	"dragster.go": "the root package's aliases are the public API",

	// Test seams and oracles.
	"dragster/internal/dag.Graph.Gradient":                 "the throughput gradient example_test.go documents",
	"dragster/internal/gp.Regressor.PosteriorBatch":        "batch oracle the single-point posterior is tested against",
	"dragster/internal/gp.Regressor.LogMarginalLikelihood": "LML oracle for the hyperparameter search tests",
	"dragster/internal/gp.Regressor.InformationGain":       "Γ_T, the information gain the Theorem-1 regret bound is stated in",
	"dragster/internal/linalg.Identity":                    "test oracle for the factorization round trips",
	"dragster/internal/linalg.Matrix.Mul":                  "test oracle: builds SPD inputs and checks L·Lᵀ = A",
	"dragster/internal/linalg.Matrix.MulVec":               "test oracle for the solves",
	"dragster/internal/linalg.Cholesky.SolveVec":           "allocating form of SolveVecInto, the solve tests' oracle",
	"dragster/internal/linalg.Cholesky.SolveLowerVec":      "test oracle for the in-place triangular solves",
	"dragster/internal/streamsim.Engine.CPUView":           "test seam onto the engine's per-operator CPU",
	"dragster/internal/streamsim.Engine.TasksView":         "test seam onto the engine's per-operator tasks",
	"dragster/internal/streamsim.Engine.TrueCapacity":      "noise-free capacity oracle the tests check against",
	"dragster/internal/streamsim.Engine.BufferedTotal":     "backlog oracle for the buffer-cap and draining tests",
	"dragster/internal/ucb.Searcher.PosteriorAt":           "posterior seam a benchmark reads",
	"dragster/internal/telemetry.Registry.CounterValue":    "test seam onto one counter",
	"dragster/internal/telemetry.Registry.GaugeValue":      "test seam onto one gauge",
	"dragster/internal/core.Controller.StaleSkips":         "test seam onto the stale-round count",
	"dragster/internal/core.RescaleRetrier.LastErr":        "test seam onto the retrier's last error",
	"dragster/internal/daemon.FleetDaemon.StepN":           "test helper that steps several fleet rounds at once",
	"dragster/internal/experiment.Runner.ChaosTrace":       "test seam onto the injected fault trace",
	"dragster/internal/fleet.Manager.TraceBytes":           "test seam onto the encoded event trace",
	"dragster/internal/fleet/event.Decode":                 "the codec's decoder, which the fuzz round trip drives",
	"dragster/internal/fleet/event.DecodeAll":              "the codec's stream decoder, which the fuzz round trip drives",
	"dragster/internal/chaos.Spec.AtSecond":                "fluent chaos Spec method; tests assemble fault schedules from these",
	"dragster/internal/chaos.Spec.CrashLastNode":           "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.DelayScheduler":          "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.OOMKillPod":              "fluent chaos Spec method",
	"dragster/internal/chaos.Spec.MaxSlot":                 "sizes a run to a built Spec's schedule",
	"dragster/internal/cluster.Cluster.Deployments":        "test seam onto the deployment list",
	"dragster/internal/cluster.Cluster.PendingPods":        "test seam onto unscheduled pods",
	"dragster/internal/cluster.Cluster.PodMetrics":         "the metrics-server read side of SetDeploymentUtil, which the substrate feeds once per slot",
	"dragster/internal/stats.RNG.Uniform":                  "the RNG's uniform draw, kept beside Normal and LogNormal",

	// Features with no caller yet.
	"dragster/internal/flink.RESTHandler":           "the Flink REST seam dragsterd's documentation points to",
	"dragster/internal/flink.NewRESTHandler":        "constructs the Flink REST seam",
	"dragster/internal/flink.RESTHandler.ServeHTTP": "the REST seam's http.Handler method",
	"dragster/internal/monitor.HTTPSource":          "the monitor's side of the Flink REST seam",
	"dragster/internal/daemon.ResumeFleet":          "consumes GET /fleet/checkpoint for failover",
	"dragster/internal/fleet.ResumeReader":          "reads a GET /fleet/checkpoint stream for failover",
	"dragster/internal/gp.Matern52":                 "the kernel BenchmarkAblationKernel compares against",
	"dragster/internal/gp.NewMatern52":              "constructs Matern52 for BenchmarkAblationKernel",
}

// TestNoDeadExports fails on any exported function, method or type whose
// name appears, outside comments, in no production file but at its own
// declaration. perfbench/ counts as a caller. The match is by name, so a
// name shared with a live declaration elsewhere passes.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}     // identifier → occurrences across production files
	decls := map[string]string{} // keep-list key → declared name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == "dagtest" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if strings.HasPrefix(path, "perfbench/") || deadExportKeep[path] != "" {
			return nil
		}
		pkg := "dragster"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if !dd.Name.IsExported() {
					continue
				}
				key := pkg + "." + dd.Name.Name
				if dd.Recv != nil {
					key = pkg + "." + recvName(dd.Recv.List[0].Type) + "." + dd.Name.Name
				}
				decls[key] = dd.Name.Name
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						decls[pkg+"."+ts.Name.Name] = ts.Name.Name
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, name := range decls {
		if uses[name] == 1 && deadExportKeep[key] == "" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s has no production caller: delete it, or keep it in deadExportKeep with a reason", k)
	}
	var stale []string
	for k := range deadExportKeep {
		if _, ok := decls[k]; !ok && !strings.HasSuffix(k, ".go") {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("deadExportKeep names %s, which is no longer declared", k)
	}
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
