package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errflowPkgs are the packages whose every error-returning function and
// method is in the configured fallible set: these are the simulator's
// stateful substrates (k8s-model cluster, Flink adapter, the
// observation store), where a swallowed error silently desynchronizes the
// model from the controller's view of it.
var errflowPkgs = []string{
	ModulePath + "/internal/store",
	ModulePath + "/internal/flink",
	ModulePath + "/internal/cluster",
}

// errflowExtras names additional fallible functions outside those
// packages, as "importpath.Name". ObserveRates rejects invalid throughput
// samples via its error; dropping it hides learner starvation.
var errflowExtras = map[string]bool{
	ModulePath + "/internal/dag.ObserveRates": true,
}

// ErrflowAnalyzer flags discarded error returns — `_ = f(...)`, bare
// `f(...)` statements, `defer f(...)`, and `go f(...)` — for the
// configured set of fallible functions. Handle the error, or carry an
// explicit `//lint:allow errflow <reason>`.
func ErrflowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errflow",
		Doc: "flag discarded error returns (`_ =` and bare calls) for fallible " +
			"functions in internal/store, internal/flink, internal/cluster (and " +
			"configured extras); every error must be handled, propagated, or " +
			"explicitly waived with a reasoned //lint:allow",
		Run: runErrflow,
	}
}

func runErrflow(pass *Pass) []Diagnostic {
	if !inModule(pass) {
		return nil
	}
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		if isTestFile(pass.Fset, call.Pos()) {
			return // tests discard errors on purpose when exercising panics etc.
		}
		name, ok := fallibleCall(pass.Info, call)
		if !ok {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  call.Pos(),
			Rule: "errflow",
			Message: fmt.Sprintf("%s discards the error from %s; handle or propagate it "+
				"(or waive with //lint:allow errflow <reason>)", how, name),
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call, "statement")
				}
			case *ast.DeferStmt:
				flag(n.Call, "defer")
			case *ast.GoStmt:
				flag(n.Call, "go statement")
			case *ast.AssignStmt:
				// `_ = f(...)` or `v, _ := f(...)` with the error position blank.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if errPos := errResultIndex(pass.Info, call); errPos >= 0 && errPos < len(n.Lhs) {
					if id, ok := n.Lhs[errPos].(*ast.Ident); ok && id.Name == "_" {
						flag(call, "blank assignment")
					}
				}
			}
			return true
		})
	}
	return diags
}

// fallibleCall reports whether the call targets a configured fallible
// function that returns an error, and names it for the diagnostic.
func fallibleCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if !returnsError(fn) {
		return "", false
	}
	path := fn.Pkg().Path()
	qualified := path + "." + fn.Name()
	if errflowExtras[qualified] {
		return qualified, true
	}
	for _, p := range errflowPkgs {
		if path == p || hasPathPrefix(path, p) {
			return qualified, true
		}
	}
	return "", false
}

// calledFunc resolves the called function or method object, if static.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// returnsError reports whether the function's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// errResultIndex returns the index of the error result in the call's
// result tuple for a configured fallible call, or -1.
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	fn := calledFunc(info, call)
	if fn == nil || !returnsError(fn) {
		return -1
	}
	if _, ok := fallibleCall(info, call); !ok {
		return -1
	}
	sig := fn.Type().(*types.Signature)
	return sig.Results().Len() - 1
}
