package seq

// The fixed-point limits, for the external tests' oracle.
const (
	SteadyIterations = steadyIterations
	SteadyTolerance  = steadyTolerance
)
