package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// UnguardedStats flags methods that mutate receiver fields of a struct
// carrying no sync primitive at all, in a package that spawns goroutines
// (the gateway.Stats counters were the motivating case) — the fix is to add
// a mutex. It is a heuristic with deliberate limits: a struct with any sync
// field (a Mutex, a WaitGroup, a pointer to a lock-bearing type) is trusted
// to synchronize itself, whether or not a given write actually holds the
// lock; that discipline is held by `go test -race ./...` and the soaks, not
// by this rule.
var UnguardedStats = &analysis.Analyzer{
	Name: "unguardedstats",
	Doc:  "flags field mutations in methods of lock-free structs in goroutine-spawning packages",
	Run:  runUnguardedStats,
}

func runUnguardedStats(pass *analysis.Pass) {
	spawns := false
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				spawns = true
			}
			return !spawns
		})
	}
	if !spawns {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			recvField := fd.Recv.List[0]
			if len(recvField.Names) == 0 {
				continue
			}
			recvObj := pass.Info.Defs[recvField.Names[0]]
			if recvObj == nil {
				continue
			}
			st := namedStruct(recvObj.Type())
			if st == nil || structHasSyncField(st) {
				continue // not a struct, or trusted: it carries its own synchronization
			}
			walkUnguardedWrites(pass, fd, recvObj)
		}
	}
}

// walkUnguardedWrites reports every receiver-rooted assignment and
// increment in the method body.
func walkUnguardedWrites(pass *analysis.Pass, fd *ast.FuncDecl, recvObj types.Object) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			reportUnguardedWrite(pass, n.X, recvObj)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				reportUnguardedWrite(pass, lhs, recvObj)
			}
		}
		return true
	})
}

// namedStruct unwraps a (possibly pointer) receiver type to its struct
// underlying type.
func namedStruct(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func structHasSyncField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if analysis.TypeContainsSync(ft) {
			return true
		}
		if ptr, ok := ft.Underlying().(*types.Pointer); ok && analysis.TypeContainsSync(ptr.Elem()) {
			return true
		}
	}
	return false
}

// reportUnguardedWrite flags lhs when it is a field chain rooted at the
// receiver (r.f = ..., r.stats.Count++).
func reportUnguardedWrite(pass *analysis.Pass, lhs ast.Expr, recv types.Object) {
	expr := ast.Unparen(lhs)
	fields := 0
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			fields++
			expr = ast.Unparen(e.X)
		case *ast.IndexExpr:
			expr = ast.Unparen(e.X)
		case *ast.StarExpr:
			expr = ast.Unparen(e.X)
		case *ast.Ident:
			if fields > 0 && pass.Info.Uses[e] == recv {
				pass.Reportf(lhs.Pos(), "%s written without synchronization in a package that spawns goroutines; guard %s with a sync.Mutex", exprString(lhs), recv.Type())
			}
			return
		default:
			return
		}
	}
}

// exprString renders a small lvalue expression for a message.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "field"
}
