package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Budgetpair enforces the PR 3 leak lesson: a function that stages an
// acquire (a disk.Budget.Reserve charge, a netstore Client.Lease)
// and also releases it locally must release on *every* return path —
// including the early error returns, which is exactly where the PR 3
// budget leak hid (a payload whose Commit failed was dropped without
// Discard, stranding its slot-budget charge).
//
// Only functions that contain both the acquire and a matching release
// are examined (acquire-only functions transfer ownership — a lease
// token stored for a later Unload is legal), and a deferred release
// covers every path. Otherwise a return after the acquire is covered
// only by a release that runs on its way out: one in the return's own
// block or in a block enclosing it, between the acquire and the
// return, or one inside the return expression. A release on a sibling
// branch — an earlier error path this return never takes — does not
// count. A return is also covered once the acquire's token has been
// handed off on its way: the token itself, or a composite literal
// holding it, stored into a field, map or slice element in the same
// blocks, or returned to the caller. A token that is only an error (a
// Reserve's result) is never handed off, and neither is one merely
// mentioned inside another expression.
var Budgetpair = &Analyzer{
	Name: "budgetpair",
	Doc: "flags return paths between a staged acquire (Budget.Reserve, Client.Lease) and its " +
		"local release — when a function both acquires and releases, an early return in " +
		"between leaks the stake (the PR 3 budget-leak shape); release before returning or " +
		"defer the release",
	Run: runBudgetpair,
}

// acquirePair describes one acquire/release discipline the analyzer
// pairs up, keyed on the receiver's defining package and type.
type acquirePair struct {
	pkg, typ, acquire, release string
	what                       string
}

// budgetPairs is the repo's staged-resource vocabulary.
var budgetPairs = []acquirePair{
	{diskPath, "Budget", "Reserve", "Release", "budget reservation"},
	{netstorePath, "Client", "Lease", "Release", "partition lease"},
}

func runBudgetpair(pass *Pass) error {
	for _, file := range pass.Files {
		for _, scope := range funcScopes(file) {
			body := funcBody(scope)
			if body == nil {
				continue
			}
			for _, pair := range budgetPairs {
				checkPairScope(pass, body, pair)
			}
		}
	}
	return nil
}

// pairSite is one acquire, release, hand-off or return location. end
// matters for returns: a release nested in the return expression
// itself (`return c.Release(p, token)`) runs before the function exits
// and covers that path. block is the innermost statement list holding
// the site — a block, case clause or select clause — which is what a
// release or hand-off covers: the returns inside that list after it.
type pairSite struct {
	pos, end int
	node     ast.Node
	block    ast.Node
}

// covers reports whether site, which comes before ret, runs on every
// path to ret: ret lies in site's own statement list.
func (site pairSite) covers(ret pairSite) bool {
	return site.pos < ret.pos && int(site.block.Pos()) <= ret.pos && ret.end <= int(site.block.End())
}

// checkPairScope applies one pairing discipline to one function body.
func checkPairScope(pass *Pass, body *ast.BlockStmt, pair acquirePair) {
	var acquires, releases, stores, returns []pairSite
	deferredRelease := false

	var inDefer ast.Node
	var stack []ast.Node
	innermostList := func() ast.Node {
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				return stack[i]
			}
		}
		return body
	}
	// Releases are collected across nested literals too, so a release
	// inside `defer func() { ... }()` is seen as deferred; one in a
	// literal that is not deferred has the literal's body as its block
	// and covers none of this function's returns. Acquires and returns
	// stay shallow — they belong to this function's control flow.
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if d, ok := n.(*ast.DeferStmt); ok {
			inDefer = d
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, pairSite{pos: int(n.Pos()), end: int(n.End()), node: n})
		case *ast.AssignStmt:
			if slices.ContainsFunc(n.Lhs, storesAway) {
				stores = append(stores, pairSite{pos: int(n.Pos()), node: n, block: innermostList()})
			}
		case *ast.CallExpr:
			obj := calleeObj(pass.Info, n)
			if obj == nil {
				return true
			}
			switch {
			case isMethodOn(obj, pair.pkg, pair.typ) && obj.Name() == pair.acquire:
				acquires = append(acquires, pairSite{pos: int(n.Pos()), node: n})
			case isMethodOn(obj, pair.pkg, pair.typ) && obj.Name() == pair.release:
				releases = append(releases, pairSite{pos: int(n.Pos()), node: n, block: innermostList()})
				if inDefer != nil && n.Pos() >= inDefer.Pos() && n.End() <= inDefer.End() {
					deferredRelease = true
				}
			}
		}
		return true
	})

	// Returns inside nested function literals are not this function's
	// return paths; prune them.
	returns = pruneNestedReturns(body, returns)

	if len(acquires) == 0 || len(releases) == 0 || deferredRelease {
		return
	}
	for _, acq := range acquires {
		// A failed acquire stages nothing: returns inside the acquire's
		// own error check (`tok, err := c.Lease(p); if err != nil { return }`
		// or the init-statement form) are not leak paths.
		call := acq.node.(*ast.CallExpr)
		exemptEnd := int(acquireExemptEnd(pass.Info, body, call))
		token := acquiredToken(pass.Info, body, call)
		for _, ret := range returns {
			if ret.pos <= acq.pos || ret.pos <= exemptEnd {
				continue
			}
			if !releasedOrHandedOff(pass.Info, acq, ret, releases, stores, token) {
				pass.Reportf(ret.node.Pos(), "return path leaks the %s staged at line %d: no %s runs between the acquire and this return (and no deferred release); release before returning",
					pair.what, pass.Fset.Position(acq.node.Pos()).Line, pair.release)
				break // one finding per acquire is enough
			}
		}
	}
}

// releasedOrHandedOff reports whether the stake acq staged is settled
// on the way to ret: a release after the acquire covers ret or sits in
// its expression, or the acquire's token (nil when it has none) is
// stored away before ret in a list covering it, or is returned by ret.
// Only the token itself counts as handed off — a stored value or a
// result, or an element of a composite literal that is one; a token
// merely mentioned in another expression (`fmt.Errorf("%d", token)`)
// stays this function's to release.
func releasedOrHandedOff(info *types.Info, acq, ret pairSite, releases, stores []pairSite, tok types.Object) bool {
	for _, rel := range releases {
		if rel.pos > acq.pos && (rel.covers(ret) || (rel.pos >= ret.pos && rel.pos <= ret.end)) {
			return true
		}
	}
	if tok == nil {
		return false
	}
	for _, res := range ret.node.(*ast.ReturnStmt).Results {
		if isToken(info, res, tok) {
			return true
		}
	}
	for _, st := range stores {
		if st.pos <= acq.pos || !st.covers(ret) {
			continue
		}
		assign := st.node.(*ast.AssignStmt)
		if len(assign.Lhs) != len(assign.Rhs) {
			continue
		}
		for i, rhs := range assign.Rhs {
			if storesAway(assign.Lhs[i]) && isToken(info, rhs, tok) {
				return true
			}
		}
	}
	return false
}

// isToken reports whether e is the token variable itself, or a
// composite literal (or its address) holding the token as an element.
func isToken(info *types.Info, e ast.Expr, tok types.Object) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e] == tok
	case *ast.UnaryExpr:
		lit, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return e.Op == token.AND && ok && isToken(info, lit, tok)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if isToken(info, elt, tok) {
				return true
			}
		}
	}
	return false
}

// storesAway reports whether an assignment target outlives the
// function's locals: a field, a map or slice element, or a write
// through a pointer.
func storesAway(lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// acquiredToken returns the variable the acquire's first result is
// assigned to (`token, err := c.Lease(p)`), or nil when the result is
// discarded, is only an error (`err := b.Reserve(n)` hands nothing
// off), or the acquire is not the right-hand side of an assignment.
func acquiredToken(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) types.Object {
	first := info.TypeOf(call)
	if tuple, ok := first.(*types.Tuple); ok && tuple.Len() > 0 {
		first = tuple.At(0).Type()
	}
	if first == nil || types.Identical(first, types.Universe.Lookup("error").Type()) {
		return nil
	}
	var tok types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || tok != nil {
			return tok == nil
		}
		if len(assign.Rhs) != 1 || ast.Unparen(assign.Rhs[0]) != call || len(assign.Lhs) == 0 {
			return true
		}
		if id, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			if tok = info.Defs[id]; tok == nil {
				tok = info.Uses[id]
			}
		}
		return false
	})
	return tok
}

// acquireExemptEnd returns the end position of the acquire's
// failure-check window: the IfStmt that either carries the acquire in
// its init statement or immediately follows the acquire's assignment
// and tests a variable that assignment wrote (the error). Returns
// inside that window run only when the acquire failed. Without such a
// check, the window is just the call itself.
func acquireExemptEnd(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) token.Pos {
	end := call.End()
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range blk.List {
			if call.Pos() < stmt.Pos() || call.End() > stmt.End() {
				continue
			}
			switch s := stmt.(type) {
			case *ast.IfStmt:
				if s.Init != nil && call.End() <= s.Init.End() && condMentionsAssigned(info, s.Cond, s.Init) {
					if s.End() > end {
						end = s.End()
					}
				}
			case *ast.AssignStmt:
				if i+1 < len(blk.List) {
					if ifs, ok := blk.List[i+1].(*ast.IfStmt); ok && condMentionsAssigned(info, ifs.Cond, s) {
						if ifs.End() > end {
							end = ifs.End()
						}
					}
				}
			}
		}
		return true
	})
	return end
}

// condMentionsAssigned reports whether cond uses a variable the
// statement's assignment defines or writes.
func condMentionsAssigned(info *types.Info, cond ast.Expr, stmt ast.Stmt) bool {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range assign.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			for _, obj := range []types.Object{info.Defs[id], info.Uses[id]} {
				if obj != nil && mentions(info, cond, obj) {
					return true
				}
			}
		}
	}
	return false
}

// pruneNestedReturns drops returns that belong to nested function
// literals rather than the scanned body.
func pruneNestedReturns(body *ast.BlockStmt, returns []pairSite) []pairSite {
	var lits []ast.Node
	first := true
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, n)
			return false
		}
		return true
	})
	if len(lits) == 0 {
		return returns
	}
	kept := returns[:0]
	for _, r := range returns {
		nested := false
		for _, l := range lits {
			if r.node.Pos() >= l.Pos() && r.node.End() <= l.End() {
				nested = true
				break
			}
		}
		if !nested {
			kept = append(kept, r)
		}
	}
	return kept
}
