package bdd

import (
	"errors"
	"fmt"

	"repro/internal/budget"
)

// The manager polls its budget token from the innermost hot path —
// unique-table interning in mk — which sits under arbitrarily deep
// apply/ITE recursions. Returning an error from there would thread an
// error path through every recursive operator, so the engine follows
// the CUDD convention instead: a trip raises a typed panic that unwinds
// the whole build, and the BuildNetwork boundary (or CatchInterrupt)
// converts it back into an ordinary error. A build's state stays
// consistent across the unwind — mk polls only after an insert
// completes — but a reorder's does not (its unique table stays
// detached), and a tripped manager is dropped either way: a retry (the
// flow's degradation chain runs one per stage) builds into a fresh
// manager.

// buildInterrupt is the typed panic carrying a budget/cancellation trip
// out of a build.
type buildInterrupt struct{ err error }

// orderError is the typed panic raised by order validation
// (NewWithOrder*) on a malformed variable order, so a caller
// constructing the manager for an order from a config knob under
// CatchInterrupt hands it back as an error row instead of a trapped
// panic.
type orderError string

// cancelPollInterval is how many unique-table inserts pass between
// cancellation polls (one atomic load each). The node-budget compare is
// checked on every insert; it is two plain loads.
const cancelPollInterval = 256

// SetBudget attaches a cancellation/budget token to the manager; every
// subsequent build polls it at bounded intervals. A nil token detaches.
func (m *Manager) SetBudget(t *budget.T) { m.budget = t }

// pollBudget enforces the node cap and cancellation on the fresh-node
// intern path, with live the node count the cap is checked against.
// Caller guarantees m.budget != nil.
func (m *Manager) pollBudget(live int) {
	if max := m.budget.MaxBDDNodes(); max > 0 && live > max {
		panic(buildInterrupt{m.budget.TripBDD()})
	}
	if live%cancelPollInterval == 0 {
		if err := m.budget.Err(); err != nil {
			panic(buildInterrupt{err})
		}
	}
}

// recoveredBuildErr maps a recovered panic value to the error the build
// boundary should return, or nil when the panic is not one of the
// manager's typed interrupts (the caller must re-panic).
func recoveredBuildErr(p any) error {
	switch v := p.(type) {
	case buildInterrupt:
		return v.err
	case orderError:
		return errors.New(string(v))
	}
	return nil
}

// CatchInterrupt runs build, converting a budget/cancellation interrupt
// or order-validation panic raised by manager operations inside it into
// the returned error. Any other panic propagates unchanged. Callers
// constructing BDDs outside BuildNetwork (per-cone local builds, say),
// or a manager from an unchecked order, use it to get the same
// error-not-panic contract.
func CatchInterrupt(build func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e := recoveredBuildErr(p); e != nil {
				err = e
				return
			}
			panic(p)
		}
	}()
	build()
	return nil
}

// Interrupt trips an explicit build interrupt carrying err from inside
// a CatchInterrupt/BuildNetwork region. It exists for callers that
// poll the token themselves between manager operations.
func Interrupt(err error) {
	if err == nil {
		err = fmt.Errorf("bdd: build interrupted")
	}
	panic(buildInterrupt{err})
}
