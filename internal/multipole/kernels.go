package multipole

// FlopsPerMonopole is the conventional operation count per monopole
// interaction used by the paper (Table 3) when converting interaction counts
// into flop rates.
const FlopsPerMonopole = 28

// FlopsPerQuadrupole and FlopsPerHexadecapole are the per-interaction
// operation counts used for the flop accounting of Table 2.  They follow the
// cost model of the Cartesian expansions (number of independent tensor
// components touched by the force contraction).
const (
	FlopsPerQuadrupole   = 112
	FlopsPerHexadecapole = 450
)
