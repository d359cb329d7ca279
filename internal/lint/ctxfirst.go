package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CtxFirst enforces the Execution-API-v2 contract (PR 4): cancellation
// flows from the edge of the program — a signal handler in main, a
// request context in the server — through every layer down to the
// simulation core's abort path. Three rules keep that chain unbroken:
//
//  1. context.Background()/context.TODO() belong in package main and
//     test files only; library code accepts a ctx parameter.
//  2. A function that already receives a Context must not call
//     Background()/TODO() — that silently drops the caller's
//     cancellation, the exact bug class that once made server
//     disconnects keep simulating.
//  3. Contexts are not stored in struct fields; they are passed
//     per-call, so a value's lifetime can never outlive its deadline.
//
// Deliberate exceptions (petasim serve's shutdown drain, which needs a
// fresh deadline once the signal context is already cancelled)
// annotate with //petavet:ignore ctxfirst <why>.
var CtxFirst = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc: "no context.Background/TODO outside main and tests; a function receiving a " +
		"ctx must not drop it; no context.Context struct fields",
	Run: runCtxFirst,
}

func runCtxFirst(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkFreshContext(pass, n, stack, isMain)
			case *ast.StructType:
				checkCtxField(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkFreshContext(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, isMain bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	name := fn.Name()
	if name != "Background" && name != "TODO" {
		return
	}
	// Rule 2 outranks the main exemption: even main must not mint a
	// fresh context inside a function that was handed one.
	for _, encl := range enclosingFuncs(stack) {
		if funcTakesContext(pass.TypesInfo, encl) {
			pass.Reportf(call.Pos(),
				"context.%s inside a function that receives a Context: this drops the caller's cancellation; use the ctx parameter", name)
			return
		}
	}
	if isMain {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s outside package main and tests: accept a ctx parameter so cancellation reaches this code (//petavet:ignore ctxfirst <why> for deliberate context-free entry points)", name)
}

// funcTakesContext reports whether the function declares a parameter of
// type context.Context.
func funcTakesContext(info *types.Info, fn ast.Node) bool {
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return false
	}
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func checkCtxField(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			pass.Reportf(field.Pos(),
				"context.Context stored in a struct field: contexts are call-scoped; pass ctx as a parameter so a value can never outlive its deadline")
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
