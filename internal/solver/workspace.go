package solver

import (
	"sync/atomic"

	"execrecon/internal/expr"
)

// workspace is the scratch state one Solve call blasts and searches
// in: the SAT core and the blaster, with its expression-to-bits and
// variable maps and the slab its bit vectors are carved from.
//
// Symbolic execution builds a new Solver for every engine and asks it
// only a handful of queries, so state owned by a Solver would be grown
// from zero for nearly every query. The workspace is instead owned by
// the Solve call that borrows it: acquireWorkspace takes the package's
// single idle workspace (or builds a new one), and releaseWorkspace
// gives it back once the model is extracted. Reset keeps the capacity
// of every vector, map and the slab, so in steady state a query
// allocates none of them.
//
// Retention: the idle slot holds at most one workspace — the one most
// recently released, its core, maps and slab sized by the largest query
// it has served. A second concurrent
// Solve finds the slot empty and builds its own, which is dropped if
// another is released first. Measured on 2 vCPUs, deeper retention (a
// stack of up to GOMAXPROCS idle workspaces) raised fleet and cluster
// peak RSS by 20–22%; sync.Pool missed across Ps and weak pointers were
// cleared by every GC, each losing most of the gain. The price of the one slot is
// that a process keeps the core of its largest query, and every garbage
// collection marks that core's watch lists.
type workspace struct {
	core sat
	bl   blaster // holds the maps and the slab
}

// idleWS is the one idle workspace, or nil.
var idleWS atomic.Pointer[workspace]

// acquireWorkspace returns a workspace whose core and blaster are
// reset for a query metered by budget.
func acquireWorkspace(budget *Budget) *workspace {
	ws := idleWS.Swap(nil)
	if ws == nil {
		ws = &workspace{}
		ws.bl.bits = make(map[*expr.Expr][]lit)
		ws.bl.vars = make(map[string][]lit)
	}
	ws.core.reset(budget)
	ws.bl.init(&ws.core, budget)
	return ws
}

// releaseWorkspace drops ws's references into the finished query, so
// the idle workspace pins none of its expressions, and makes it the
// idle workspace. Nothing may use ws, or any bit vector carved from
// it, afterwards.
func releaseWorkspace(ws *workspace) {
	ws.core.budget = nil
	clear(ws.bl.bits)
	clear(ws.bl.vars)
	ws.bl.budget = nil
	idleWS.Store(ws)
}
