package lint

import (
	"go/ast"
	"go/types"
)

// InternEscape flags label-chunk aliases that outlive the Shard.Labels
// call. A LabelChunk and its Meta/Labels slices are per-block buffers
// shared read-only by every accumulator group, and the interned ids
// inside them are local to the partition's tables — MergeCtx remaps
// them when partition shards fold, so a raw id held past the call
// points into the wrong table after the remap. Accumulators must
// copy the elements they keep (ids are plain ints; copying them is
// the point — see LabelChunk's doc in internal/analysis).
//
// The analyzer keys on the package defining a LabelChunk struct with
// Meta and Labels fields (internal/analysis and its fixtures; inert
// everywhere else) and flags stores into field selectors, map keys,
// or slice elements whose value aliases chunk memory: the chunk
// pointer itself, a chunk value copy (its slices still alias), or a
// Meta/Labels slice — including reslicings like c.Meta[:n]. Element
// reads (c.Meta[i]), spread appends (append(dst, c.Meta...)), and
// local variables are all fine: they either copy or die with the
// call. This is a direct-store check, not an escape analysis — an
// alias laundered through a local then stored is not caught.
var InternEscape = &Analyzer{
	Name: "internescape",
	Doc: "flag stores that retain a *LabelChunk or alias its Meta/Labels slices beyond the " +
		"Shard.Labels call; the buffers are per-block and their interned ids are only " +
		"valid until MergeCtx remaps them — copy elements instead",
	Run: runInternEscape,
}

func runInternEscape(pass *Pass) error {
	chunk := labelChunkType(pass.Pkg)
	if chunk == nil {
		return nil // not a label-engine package
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, chunk, n)
			case *ast.CompositeLit:
				checkComposite(pass, chunk, n)
			}
			return true
		})
	}
	return nil
}

// labelChunkType returns the package-scope LabelChunk struct type if
// it carries Meta and Labels fields, else nil. The field requirement
// keeps an unrelated type of the same name from arming the analyzer.
func labelChunkType(pkg *types.Package) *types.Named {
	tn, ok := pkg.Scope().Lookup("LabelChunk").(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	hasMeta, hasLabels := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Meta":
			hasMeta = true
		case "Labels":
			hasLabels = true
		}
	}
	if !hasMeta || !hasLabels {
		return nil
	}
	return named
}

// checkAssign flags escaping stores: an assignment whose destination
// is a field selector or an index expression (both outlive the frame)
// and whose source aliases chunk memory. Plain `x := ...` locals are
// out of scope — they die with the call.
func checkAssign(pass *Pass, chunk *types.Named, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // tuple-from-call form; a call result is not a chunk alias
	}
	for i, lhs := range as.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue
		}
		reportAlias(pass, chunk, as.Rhs[i])
	}
}

// checkComposite flags chunk aliases captured into composite literals
// (`state{meta: c.Meta}`) — the literal is usually on its way into a
// longer-lived structure.
func checkComposite(pass *Pass, chunk *types.Named, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		reportAlias(pass, chunk, elt)
	}
}

// reportAlias reports e when it aliases chunk memory and the site is
// not test code or audited.
func reportAlias(pass *Pass, chunk *types.Named, e ast.Expr) {
	what, ok := chunkAlias(pass, chunk, e)
	if !ok || pass.testFile(e.Pos()) || pass.Suppressed(e.Pos(), "internescape") {
		return
	}
	pass.Reportf(e.Pos(), "%s aliases a per-block label chunk beyond the Labels call: the Meta buffer is per-block and its interned ids are remapped at merge (MergeCtx); copy the elements you keep, or audit with //lint:internescape", what)
}

// chunkAlias reports whether e aliases chunk memory: the chunk
// pointer or a value copy of it (reference form only — fresh
// composite literals and call results are new memory the writer
// owns), or one of its Meta/Labels slices, possibly resliced.
func chunkAlias(pass *Pass, chunk *types.Named, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch ref := e.(type) {
	case *ast.Ident, *ast.StarExpr:
		if isChunkType(pass.TypesInfo.TypeOf(e), chunk) {
			return "storing " + exprString(e), true
		}
		return "", false
	case *ast.UnaryExpr:
		// &existing aliases; &LabelChunk{...} is fresh memory the
		// writer owns (its captured elements are checked separately).
		if _, fresh := ast.Unparen(ref.X).(*ast.CompositeLit); !fresh && isChunkType(pass.TypesInfo.TypeOf(e), chunk) {
			return "storing " + exprString(e), true
		}
		return "", false
	case *ast.SliceExpr:
		e = ast.Unparen(ref.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Meta" && sel.Sel.Name != "Labels" {
		// c.Field where c is a chunk: Meta/Labels alias the shared
		// buffers; other fields are scalars and copy.
		if isChunkType(pass.TypesInfo.TypeOf(sel), chunk) {
			return "storing " + exprString(sel), true
		}
		return "", false
	}
	if !isChunkType(pass.TypesInfo.TypeOf(sel.X), chunk) {
		return "", false
	}
	return "storing " + exprString(sel.X) + "." + sel.Sel.Name, true
}

// isChunkType reports whether t is the LabelChunk type or a pointer
// to it.
func isChunkType(t types.Type, chunk *types.Named) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == chunk.Obj()
}

// exprString renders a short reference expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	default:
		return "expression"
	}
}
