package rap

// Status reports the outcome of a solve.
type Status int8

const (
	// Optimal: proven optimal within the gap tolerance.
	Optimal Status = iota
	// Feasible: search limit hit with an incumbent in hand.
	Feasible
	// Infeasible: no feasible assignment exists.
	Infeasible
	// Limit: search limit hit with no incumbent.
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	default:
		return "unknown"
	}
}

// StopReason records why the search ended before exhausting the tree; it
// distinguishes the solver's own budgets (nodes, wall-clock) from the
// caller's context so degradation policies can report honest provenance.
type StopReason int8

const (
	// StopNone: the tree was exhausted (or the gap closed); nothing was cut
	// short.
	StopNone StopReason = iota
	// StopNodeLimit: Options.MaxNodes ran out.
	StopNodeLimit
	// StopTimeLimit: Options.TimeLimit expired.
	StopTimeLimit
	// StopContext: the caller's context was canceled or its deadline
	// expired mid-search.
	StopContext
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "none"
	case StopNodeLimit:
		return "node-limit"
	case StopTimeLimit:
		return "time-limit"
	case StopContext:
		return "context"
	default:
		return "unknown"
	}
}
