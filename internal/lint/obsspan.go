package lint

import (
	"go/ast"
	"go/token"
)

// AnalyzerObsSpan flags observability spans that can leak: a span opened by
// the two-value `trace.Start(ctx, ...)` whose End() is not guaranteed on
// every return path. A leaked span is silent data loss for the metrics registry and the
// trace tree — the stage's duration, byte, and item attributes are recorded
// only by End, so a missed path under-reports exactly the executions that
// took the unusual exit (usually the error path).
//
// The rule is intentionally lexical rather than flow-sensitive:
//
//   - a dropped result (`trace.Start(ctx, "x")` as a statement, or the
//     span assigned to `_`) is always a finding — the span can never be
//     ended;
//   - `defer sp.End()` anywhere in the function covers every exit;
//   - otherwise each return statement (and the fall-off end of the function)
//     after the Start must have an explicit `sp.End()` call lexically
//     between the Start and that exit.
//
// A third rule catches orphaned traces: `trace.Start(context.Background(),
// ...)` inside a function that is already instrumented — it has a
// context.Context parameter, or an earlier trace.Start in the same scope
// produced a context — detaches the new span from the surrounding trace and
// starts a parentless tree. Root spans in functions with no context in
// reach are fine; that is how a trace legitimately begins.
//
// Function literals are analyzed as their own scopes, so a span opened
// inside a parallel.For closure must be ended inside that closure.
var AnalyzerObsSpan = &Analyzer{
	Name: "obsspan",
	Doc:  "trace span without End() on every return path, or orphaned from its trace",
	Run:  runObsSpan,
}

func runObsSpan(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSpanScope(p, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkSpanScope(p, fn.Type, fn.Body)
			}
			return true
		})
	}
}

// spanWalk visits the nodes of one function body without descending into
// nested function literals: those are separate scopes with their own check,
// and an End() inside a closure does not end a span of the enclosing
// function at any predictable time.
func spanWalk(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// isTraceStart recognizes the two-value span constructor
// `trace.Start(ctx, name)` — a Start call through an identifier named
// trace. Type information is deliberately not consulted so the rule also
// fires in packages the loader cannot resolve.
func isTraceStart(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Start" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && id.Name == "trace"
}

// isBackgroundCtx reports whether expr is a `context.Background()` call.
func isBackgroundCtx(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Background" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && id.Name == "context"
}

// hasCtxParam reports whether the function signature takes a
// context.Context anywhere in its parameter list.
func hasCtxParam(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		sel, ok := ast.Unparen(field.Type).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == "context" {
			return true
		}
	}
	return false
}

// isEndOf reports whether call is `<name>.End()`.
func isEndOf(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && id.Name == name
}

// checkSpanScope runs the rule over one function body.
func checkSpanScope(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	type spanVar struct {
		name string
		pos  token.Pos
	}
	var spans []spanVar

	// Orphan detection state: a trace.Start from context.Background() is a
	// finding when this scope already had a context in reach — either a
	// ctx parameter or an earlier trace.Start that produced one.
	instrumented := hasCtxParam(ft)
	sawTraceStart := token.NoPos

	checkOrphan := func(call *ast.CallExpr) {
		if len(call.Args) > 0 && isBackgroundCtx(call.Args[0]) &&
			(instrumented || (sawTraceStart != token.NoPos && sawTraceStart < call.Pos())) {
			p.Reportf(call.Pos(), "trace.Start from context.Background() orphans the span; pass the surrounding ctx")
		}
		if sawTraceStart == token.NoPos || call.Pos() < sawTraceStart {
			sawTraceStart = call.Pos()
		}
	}

	spanWalk(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return
			}
			if isTraceStart(call) {
				checkOrphan(call)
				p.Reportf(call.Pos(), "result of trace.Start dropped; the span can never be ended")
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 2 {
				return
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !isTraceStart(call) {
				return
			}
			checkOrphan(call)
			id, ok := n.Lhs[1].(*ast.Ident)
			if !ok {
				return
			}
			if id.Name == "_" {
				p.Reportf(call.Pos(), "span from trace.Start assigned to _; the span can never be ended")
				return
			}
			spans = append(spans, spanVar{name: id.Name, pos: call.Pos()})
		}
	})

	if len(spans) == 0 {
		return
	}

	for _, s := range spans {
		// defer sp.End() anywhere in the scope covers every exit.
		deferred := false
		var ends []token.Pos
		spanWalk(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if isEndOf(n.Call, s.name) {
					deferred = true
				}
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isEndOf(call, s.name) {
					ends = append(ends, call.Pos())
				}
			}
		})
		if deferred {
			continue
		}

		// Exits after the Start: every return statement plus the fall-off
		// end of the body. Each needs an End lexically in between.
		var exits []token.Pos
		spanWalk(body, func(n ast.Node) {
			if r, ok := n.(*ast.ReturnStmt); ok && r.Pos() > s.pos {
				exits = append(exits, r.Pos())
			}
		})
		exits = append(exits, body.Rbrace)

		for _, exit := range exits {
			covered := false
			for _, e := range ends {
				if e > s.pos && e < exit {
					covered = true
					break
				}
			}
			if !covered {
				p.Reportf(s.pos, "span %s may leak: exit at line %d without %s.End() and no defer",
					s.name, p.Fset.Position(exit).Line, s.name)
				break
			}
		}
	}
}
