package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathSeeds are the functions on the simulator's per-tick and
// per-round critical paths, diagnosed even without an annotation: the
// streamsim tick, its operator walk, general step and backlog total, the
// GP posterior query and candidate reads, UCB candidate selection, the
// cluster tick, and the controller's decide path (the Algorithm 2 pass,
// its budget rebalancer and projection, the bottleneck set and the exact
// level-1 solve). Keys
// are fully qualified names as produced by funcFullName
// ("pkg.(*Type).Method" or "pkg.Func").
var hotpathSeeds = map[string]bool{
	ModulePath + "/internal/streamsim.(*Engine).Tick":                true,
	ModulePath + "/internal/streamsim.(*Engine).walk":                true,
	ModulePath + "/internal/streamsim.(*Engine).tickOperator":        true,
	ModulePath + "/internal/streamsim.(*Engine).addToEdge":           true,
	ModulePath + "/internal/streamsim.(*Engine).BufferedTotal":       true,
	ModulePath + "/internal/gp.(*Regressor).Posterior":               true,
	ModulePath + "/internal/gp.(*Regressor).MeanAt":                  true,
	ModulePath + "/internal/gp.(*Regressor).PosteriorAt":             true,
	ModulePath + "/internal/ucb.(*Searcher).Select":                  true,
	ModulePath + "/internal/cluster.(*Cluster).Tick":                 true,
	ModulePath + "/internal/core.(*Controller).decideConfigs":        true,
	ModulePath + "/internal/core.(*Controller).rebalanceUnderBudget": true,
	ModulePath + "/internal/ucb.ProjectTasks":                        true,
	ModulePath + "/internal/osp.Bottlenecks":                         true,
	ModulePath + "/internal/osp.(*exactSolver).solve":                true,
}

// sprintfFamily are the fmt functions that build a string (or error) per
// call; each call allocates at least once.
var sprintfFamily = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

// HotpathAnalyzer diagnoses per-call allocations inside hot-path
// functions: those annotated `//lint:hotpath` in their doc comment, plus
// the seeded tick/posterior/select/metrics set above. It flags
//
//   - make of slices, maps, and channels (hoist to a reused scratch
//     buffer; `x.field = make(...)` — the grow-in-place scratch idiom —
//     is exempt),
//   - escaping composite literals: &T{...}, slice and map literals,
//   - append growth in loops on slices declared in the function without
//     preallocated capacity,
//   - fmt.Sprintf/Errorf and string concatenation,
//   - interface boxing: a concrete non-pointer value passed to an
//     interface-typed parameter,
//   - closures declared inside loops (one allocation per iteration).
//
// Cold sub-paths inside a hot function (validation guards that never run
// in steady state) carry a reasoned //lint:allow hotpath instead.
func HotpathAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc: "flag per-call allocations (make, escaping composite literals, " +
			"unpreallocated append growth, Sprintf/string concat, interface " +
			"boxing, closures in loops) in functions annotated //lint:hotpath " +
			"or on the seeded tick/posterior/select critical paths",
		Run: runHotpath,
	}
}

func runHotpath(pass *Pass) []Diagnostic {
	if !inModule(pass) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			name := funcFullName(pass, fd)
			if !hotpathSeeds[name] && !hasDirective(fd.Doc, "//lint:hotpath") {
				continue
			}
			short := name[strings.LastIndexByte(name, '/')+1:]
			diags = append(diags, hotpathFunc(pass, fd, short)...)
		}
	}
	return diags
}

// hasDirective reports whether a doc comment group contains a comment
// line starting with the given directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// funcFullName returns "pkgpath.Func" for functions and
// "pkgpath.(Recv).Method" / "pkgpath.(*Recv).Method" for methods, using
// the stripped package path so test-variant compilations resolve to the
// same names.
func funcFullName(pass *Pass, fd *ast.FuncDecl) string {
	return declName(pass.Path(), fd)
}

// declName is funcFullName for a declaration in the package at path.
func declName(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return path + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star = "*"
		recv = se.X
	}
	// Strip any type parameters (generic receivers).
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	base := "?"
	if id, ok := recv.(*ast.Ident); ok {
		base = id.Name
	}
	return path + ".(" + star + base + ")." + fd.Name.Name
}

// hotpathFunc runs every allocation check over one hot function body.
func hotpathFunc(pass *Pass, fd *ast.FuncDecl, short string) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:  pos,
			Rule: "hotpath",
			Message: fmt.Sprintf("hot path %s %s; hoist the allocation out of the "+
				"per-call path or waive with //lint:allow hotpath <reason>",
				short, fmt.Sprintf(format, args...)),
		})
	}
	bare := nilDeclaredSlices(pass, fd.Body)

	var walk func(n ast.Node, inLoop bool)
	walk = func(root ast.Node, inLoop bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, inLoop)
				}
				walk(n.Body, true)
				return false
			case *ast.RangeStmt:
				walk(n.Body, true)
				return false
			case *ast.FuncLit:
				if inLoop {
					flag(n.Pos(), "allocates a closure per loop iteration%s", loopCaptureNote(pass, n))
				}
				// The literal's body is a different (deferred) execution
				// context; its own allocations run when it is called, which
				// the per-iteration closure diagnostic already covers.
				return false
			case *ast.CallExpr:
				checkHotCall(pass, n, flag)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						flag(n.Pos(), "heap-allocates via &composite literal")
					}
				}
			case *ast.CompositeLit:
				if t := pass.Info.TypeOf(n); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						flag(n.Pos(), "allocates a slice literal per call")
					case *types.Map:
						flag(n.Pos(), "allocates a map literal per call")
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isString(pass.Info, n.X) {
					flag(n.Pos(), "concatenates strings (allocates per call); use a reused buffer")
					return false // don't re-flag nested + chains
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.Info, n.Lhs[0]) {
					flag(n.Pos(), "grows a string with += (allocates per call)")
				}
			}
			return true
		})
	}
	walk(fd.Body, false)

	// Append growth: appends in loops to slices the function declared
	// without capacity.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isAppend(pass.Info, call) || len(call.Args) == 0 {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && bare[obj] {
					flag(call.Pos(), "appends to %s, declared without preallocated capacity; "+
						"reuse a scratch buffer or make(..., 0, n) outside the loop", id.Name)
				}
			}
			return true
		})
		return true
	})
	return diags
}

// checkHotCall flags per-call allocations at a call site: make of
// slice/map/chan (unless immediately stored into a struct field — the
// grow-in-place scratch idiom), new(T), the Sprintf family, and interface
// boxing of concrete non-pointer arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	info := pass.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !scratchGrow(pass, call) {
					flag(call.Pos(), "calls make per invocation; grow a reused scratch "+
						"field instead (x.buf = make(...) when cap is short)")
				}
			case "new":
				flag(call.Pos(), "calls new per invocation")
			}
			return
		}
	}
	if name, ok := pkgFunc(info, call, "fmt"); ok && sprintfFamily[name] {
		flag(call.Pos(), "builds a string via fmt.%s per call", name)
		return
	}
	// Interface boxing: concrete non-pointer argument to an interface
	// parameter allocates (except small cached values) on every call.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i)
		if param == nil {
			break
		}
		pt := param.Type()
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if s, ok := pt.(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isBoxFree(at) {
			continue
		}
		flag(arg.Pos(), "boxes a %s into interface parameter %s (allocates per call)",
			at.String(), paramName(param, i))
	}
}

// scratchGrow reports whether the make call is the right-hand side of an
// assignment into a struct field or package variable — the amortized
// grow-in-place scratch idiom this analyzer exists to promote.
func scratchGrow(pass *Pass, call *ast.CallExpr) bool {
	path := enclosingPath(pass, call)
	for i := len(path) - 1; i >= 0; i-- {
		asg, ok := path[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for j, rhs := range asg.Rhs {
			if containsNode(rhs, call) {
				if j < len(asg.Lhs) {
					if _, ok := ast.Unparen(asg.Lhs[j]).(*ast.SelectorExpr); ok {
						return true
					}
				}
			}
		}
	}
	return false
}

// enclosingPath returns the chain of nodes from the file root down to
// (and excluding) the target node.
func enclosingPath(pass *Pass, target ast.Node) []ast.Node {
	var path, found []ast.Node
	for _, f := range pass.Files {
		if found != nil {
			break
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if n == nil {
				path = path[:len(path)-1]
				return true
			}
			if n == target {
				found = append([]ast.Node(nil), path...)
				return false
			}
			path = append(path, n)
			return true
		})
		path = path[:0]
	}
	return found
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// nilDeclaredSlices collects the objects of slice variables declared in
// the body with no backing capacity: `var x []T`, `x := []T(nil)`, or an
// empty literal / zero-length make without a capacity argument.
func nilDeclaredSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj := pass.Info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !zeroCapSliceExpr(pass, n.Rhs[i]) {
					continue
				}
				mark(id)
			}
		}
		return true
	})
	return out
}

// zeroCapSliceExpr matches `[]T{}`, `[]T(nil)`, and `make([]T, 0)` — the
// no-capacity slice initializers whose appends reallocate as they grow.
func zeroCapSliceExpr(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		t := pass.Info.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Slice)
		return ok && len(e.Elts) == 0
	case *ast.CallExpr:
		if isMakeCall(pass.Info, e) && len(e.Args) == 2 {
			if tv, ok := pass.Info.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				return true
			}
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

func isMakeCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}

// loopCaptureNote names loop variables the closure captures, if any.
func loopCaptureNote(pass *Pass, fn *ast.FuncLit) string {
	// Best effort: report free identifiers defined by an enclosing range
	// or for clause. We only need the note, not precision, so we look for
	// uses whose declaration position lies outside the literal.
	var captured []string
	seen := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || obj.Pos() == token.NoPos || obj.Pkg() == nil {
			return true
		}
		if obj.Pos() < fn.Pos() && obj.Parent() != obj.Pkg().Scope() && !seen[id.Name] {
			if _, isVar := obj.(*types.Var); isVar {
				seen[id.Name] = true
				captured = append(captured, id.Name)
			}
		}
		return true
	})
	if len(captured) == 0 {
		return ""
	}
	return " (captures " + strings.Join(captured, ", ") + ")"
}

// callSignature resolves the static signature of a call, or nil for type
// conversions and builtins.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func paramAt(sig *types.Signature, i int) *types.Var {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		return sig.Params().At(n - 1)
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i)
}

func paramName(p *types.Var, i int) string {
	if p.Name() != "" {
		return p.Name()
	}
	return fmt.Sprintf("#%d", i)
}

// isBoxFree reports whether converting a value of type t to an interface
// does not allocate: interfaces (already boxed), pointers, channels,
// maps, funcs, and unsafe pointers are pointer-shaped; untyped nil too.
func isBoxFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UntypedNil
	}
	return false
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
