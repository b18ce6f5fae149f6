package twohot

import (
	"fmt"
	"os"

	"twohot/internal/analysis"
	"twohot/internal/massfunc"
)

// AnalysisInfo is the payload delivered to analysis observers: why the output
// fired, the measured catalog, and where it was persisted.
type AnalysisInfo struct {
	// Trigger describes the schedule firing that produced the catalog.
	Trigger analysis.Trigger
	// Catalog is the measurement result.  Observers must treat it as
	// read-only; it is shared between observers and the file writer.
	Catalog *analysis.Catalog
	// Path is the catalog file written for this firing, or "" when file
	// output is disabled (Config.Analysis.NoFiles).
	Path string
}

// AnalysisObserver receives every scheduled in-situ analysis result.  Like
// step observers, implementations run synchronously from the stepping loop in
// registration order: a slow observer slows the run but cannot corrupt it.
type AnalysisObserver interface {
	OnAnalysis(info AnalysisInfo)
}

// AnalysisFunc adapts a free function to the AnalysisObserver interface.
type AnalysisFunc func(info AnalysisInfo)

// OnAnalysis implements AnalysisObserver.
func (f AnalysisFunc) OnAnalysis(info AnalysisInfo) { f(info) }

// AddAnalysisObserver registers an observer for all subsequent scheduled
// analysis outputs.  Observers run in registration order.
func (s *Simulation) AddAnalysisObserver(obs AnalysisObserver) {
	s.analysisObs = append(s.analysisObs, obs)
}

// Analyze measures the configured analyzers over the current state and
// returns the catalog, outside any schedule: no synchronize, no file, no
// observer fan-out.  It is the programmatic probe; scheduled outputs during
// Run go through the full pipeline instead.
func (s *Simulation) Analyze() (*analysis.Catalog, error) {
	return s.analysisCatalog(analysis.Trigger{Kind: analysis.TriggerManual, Step: s.StepCount})
}

// analysisCatalog measures one catalog of the current state with the
// configuration's analyzers and theory curves at the current redshift.
func (s *Simulation) analysisCatalog(trig analysis.Trigger) (*analysis.Catalog, error) {
	if s.P == nil {
		return nil, fmt.Errorf("twohot: no particles loaded")
	}
	z := s.Redshift()
	th := analysis.Theory{
		Pred:     massfunc.NewPredictor(s.Par, s.Spec, z),
		LinearPk: func(k float64) float64 { return s.Spec.PAt(k, z) },
	}
	meta := analysis.Meta{Name: s.Cfg.Name, Step: s.StepCount, A: s.A, Trigger: trig}
	return analysis.Run(s.P, meta, s.Cfg.analysisOptions(), th)
}

// AnalysisPath is where a scheduled output with the given trigger label is
// written: "<name>-analysis-<label>.json" in the output directory.
func (s *Simulation) AnalysisPath(label string) string {
	return s.OutputPath(s.Cfg.Name + "-analysis-" + label + ".json")
}

// runScheduledAnalysis measures, persists and fans out one catalog per due
// trigger.  Triggers fire in the order given (redshift crossings in the order
// they are reached, then the cadence), each against the same state.
func (s *Simulation) runScheduledAnalysis(due []analysis.Trigger) error {
	if len(due) > 0 && !s.Cfg.Analysis.NoFiles && s.Cfg.OutputDir != "" {
		if err := os.MkdirAll(s.Cfg.OutputDir, 0o755); err != nil {
			return err
		}
	}
	for _, trig := range due {
		cat, err := s.analysisCatalog(trig)
		if err != nil {
			return err
		}
		path := ""
		if !s.Cfg.Analysis.NoFiles {
			path = s.AnalysisPath(trig.Label())
			if err := analysis.WriteCatalog(path, cat); err != nil {
				return err
			}
		}
		info := AnalysisInfo{Trigger: trig, Catalog: cat, Path: path}
		for _, o := range s.analysisObs {
			o.OnAnalysis(info)
		}
	}
	return nil
}

// AnalyzeSnapshot measures the configuration's analyzers over a snapshot file
// — the post-hoc counterpart of in-situ analysis, used to analyze cluster
// results and archived states.  The snapshot is installed exactly as
// RestoreCheckpoint installs it (its box size and completed-step count win
// over the configuration's), and the trigger is recorded verbatim in the
// catalog, its Step filled from the snapshot when zero.  Passing the trigger
// an in-situ run would have used makes the output byte-comparable with the
// in-situ catalog of the same state (analysis canonicalizes particle order by
// ID, so the snapshot's on-disk order does not matter).
func AnalyzeSnapshot(cfg Config, path string, trig analysis.Trigger) (*analysis.Catalog, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.RestoreCheckpoint(path); err != nil {
		return nil, err
	}
	if trig.Step == 0 {
		trig.Step = s.StepCount
	}
	return s.analysisCatalog(trig)
}
