package engine

import (
	"fmt"
	"strings"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
)

// GroupReport describes one compiled CTA group.
type GroupReport struct {
	// Index is the group's CTA slot.
	Index int
	// Regexes is the number of patterns in the group.
	Regexes int
	// Chars is the total pattern character length (the balancing key).
	Chars int
	// Stats is the instruction mix after all passes.
	Stats ir.Stats
	// StaticDelta is the overlap distance in bits.
	StaticDelta int
	// Dynamic reports whether the group needs runtime overlap growth
	// (while loops or carries).
	Dynamic bool
	// BarrierGroups / DedupedCopies summarize the merge schedule.
	BarrierGroups int
	DedupedCopies int
	// Guards counts inserted zero-block guards.
	Guards int
}

// Report summarizes the whole engine.
type Report struct {
	Groups []GroupReport
	// Totals aggregates the instruction mix.
	Totals ir.Stats
}

// Explain produces a compilation report: per-CTA-group instruction mixes,
// overlap distances, barrier schedules and guard counts — what
// `bitgen -explain` prints.
func (e *Engine) Explain() *Report {
	rep := &Report{}
	for gi := range e.groups {
		g := &e.groups[gi]
		prog := g.Prog()
		gr := GroupReport{
			Index:   gi,
			Regexes: len(g.Names),
			Chars:   g.Chars,
			Stats:   ir.CollectStats(prog),
		}
		an := dfg.Analyze(prog)
		gr.StaticDelta = an.StaticDelta
		gr.Dynamic = an.HasDynamic || an.HasCarry
		if prog.Barriers != nil {
			gr.BarrierGroups = len(prog.Barriers.Groups)
			gr.DedupedCopies = prog.Barriers.DedupedCopies
		}
		ir.WalkStmts(prog.Stmts, func(s ir.Stmt) {
			if _, ok := s.(*ir.Guard); ok {
				gr.Guards++
			}
		})
		rep.Groups = append(rep.Groups, gr)
		rep.Totals.And += gr.Stats.And
		rep.Totals.Or += gr.Stats.Or
		rep.Totals.Not += gr.Stats.Not
		rep.Totals.Xor += gr.Stats.Xor
		rep.Totals.Shift += gr.Stats.Shift
		rep.Totals.Star += gr.Stats.Star
		rep.Totals.While += gr.Stats.While
		rep.Totals.Assigns += gr.Stats.Assigns
	}
	return rep
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d CTA groups, %d instructions total "+
		"(%d and, %d or, %d not, %d shift, %d star, %d while)\n",
		len(r.Groups), r.Totals.Total(),
		r.Totals.And, r.Totals.Or, r.Totals.Not, r.Totals.Shift,
		r.Totals.Star, r.Totals.While)
	fmt.Fprintf(&b, "%5s %7s %7s %7s %7s %9s %8s %7s %7s\n",
		"group", "regexes", "chars", "instrs", "shifts", "delta", "dynamic", "bgroups", "guards")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%5d %7d %7d %7d %7d %8db %8v %7d %7d\n",
			g.Index, g.Regexes, g.Chars, g.Stats.Total(), g.Stats.Shift,
			g.StaticDelta, g.Dynamic, g.BarrierGroups, g.Guards)
	}
	return b.String()
}
