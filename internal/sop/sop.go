// Package sop implements ISOP and algebraic factoring: two-level
// sum-of-products covers (cubes over a fixed variable set), exact
// irredundant cover extraction from BDDs with the Minato-Morreale ISOP
// algorithm, and literal-division factoring of a cover into a
// multi-level network.
//
// The paper's flow begins with "standard technology independent
// synthesis"; this package supplies the two-level half of that substrate
// (the PLA reader consumes covers, and FactorNetwork is the optional
// collapse-and-refactor pass internal/flow runs under the row's budget
// token).
package sop

import (
	"fmt"
	"sort"
	"strings"
)

// Literal is the polarity of one variable within a cube.
type Literal uint8

// Literal values.
const (
	// DontCare: the variable does not appear in the cube.
	DontCare Literal = iota
	// Pos: the positive literal.
	Pos
	// Neg: the negative literal.
	Neg
)

// Cube is a conjunction of literals over NumVars variables, stored two
// bits per variable.
type Cube struct {
	numVars int
	words   []uint64
}

// NewCube returns the all-don't-care (tautology) cube over numVars
// variables.
func NewCube(numVars int) Cube {
	return Cube{numVars: numVars, words: make([]uint64, (numVars+31)/32)}
}

func (c Cube) slot(v int) (int, uint) {
	return v / 32, uint(v%32) * 2
}

// Literal returns the polarity of variable v in the cube.
func (c Cube) Literal(v int) Literal {
	w, s := c.slot(v)
	return Literal((c.words[w] >> s) & 3)
}

// WithLiteral returns a copy of the cube with variable v set to the
// given literal.
func (c Cube) WithLiteral(v int, lit Literal) Cube {
	out := c.Clone()
	w, s := out.slot(v)
	out.words[w] &^= 3 << s
	out.words[w] |= uint64(lit) << s
	return out
}

// Clone returns a copy.
func (c Cube) Clone() Cube {
	return Cube{numVars: c.numVars, words: append([]uint64(nil), c.words...)}
}

// Eval evaluates the cube under a complete assignment.
func (c Cube) Eval(assignment []bool) bool {
	for v := 0; v < c.numVars; v++ {
		switch c.Literal(v) {
		case Pos:
			if !assignment[v] {
				return false
			}
		case Neg:
			if assignment[v] {
				return false
			}
		}
	}
	return true
}

// String renders the cube in PLA row style ('1', '0', '-').
func (c Cube) String() string {
	b := make([]byte, c.numVars)
	for v := 0; v < c.numVars; v++ {
		switch c.Literal(v) {
		case Pos:
			b[v] = '1'
		case Neg:
			b[v] = '0'
		default:
			b[v] = '-'
		}
	}
	return string(b)
}

// Cover is a disjunction of cubes.
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// NewCover returns an empty (constant-0) cover.
func NewCover(numVars int) *Cover { return &Cover{NumVars: numVars} }

// Add appends a cube.
func (c *Cover) Add(cube Cube) {
	if cube.numVars != c.NumVars {
		panic(fmt.Sprintf("sop: cube over %d vars added to %d-var cover", cube.numVars, c.NumVars))
	}
	c.Cubes = append(c.Cubes, cube)
}

// Eval evaluates the cover under a complete assignment.
func (c *Cover) Eval(assignment []bool) bool {
	for _, cube := range c.Cubes {
		if cube.Eval(assignment) {
			return true
		}
	}
	return false
}

// String renders the cover as PLA rows joined by newlines, cubes sorted
// for stable output.
func (c *Cover) String() string {
	rows := make([]string, len(c.Cubes))
	for i, cube := range c.Cubes {
		rows[i] = cube.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
