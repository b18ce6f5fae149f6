package twohot

// Option customizes a Simulation at construction time (New).  Options are
// applied after the configuration is validated, in the order given.
type Option func(*Simulation)

// WithSolver injects a force solver, overriding the one Config.Solver would
// construct.  The configuration's physical parameters (softening, box,
// tolerances) are not re-derived — the injected solver is used as-is.
func WithSolver(fs ForceSolver) Option {
	return func(s *Simulation) { s.solver = fs }
}

// WithStepper injects a time-integration engine, overriding the one
// Config.BlockSteps would select.
func WithStepper(st Stepper) Option {
	return func(s *Simulation) { s.stepper = st }
}

// WithObserver registers observers at construction time (see AddObserver).
func WithObserver(obs ...Observer) Option {
	return func(s *Simulation) { s.observers = append(s.observers, obs...) }
}

// WithAnalysisObserver registers analysis observers at construction time
// (see AddAnalysisObserver): each receives every scheduled in-situ analysis
// catalog Config.Analysis fires during Run.
func WithAnalysisObserver(obs ...AnalysisObserver) Option {
	return func(s *Simulation) { s.analysisObs = append(s.analysisObs, obs...) }
}
