// Package prob is the detrange fixture of an engine package: its path
// ends in "prob", whose probabilities feed every row, so a map range
// there is as much a finding as one in the flow.
package prob

// Vars numbers a cone's frontier in map order: which node gets which
// variable would change from run to run.
func Vars(frontier map[int]int) []int {
	vars := make([]int, len(frontier))
	for u, v := range frontier { // want "range over map frontier: iteration order is nondeterministic"
		vars[v] = u
	}
	return vars
}

// OrderedVars numbers the frontier from its slice order instead.
func OrderedVars(order []int) map[int]int {
	vars := make(map[int]int, len(order))
	for v, u := range order {
		vars[u] = v
	}
	return vars
}
