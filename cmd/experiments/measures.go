package main

import (
	"fmt"
	"time"

	scalarfield "repro"
	"repro/internal/datasets"
)

func init() {
	register("measures", "registry sweep: terrain pipeline over every registered measure", runMeasures)
}

// runMeasures drives the full measure → tree → layout pipeline through
// the measure registry for every registered name, printing one row per
// measure. Because the list comes from the registry, a measure
// registered in internal/measures shows up here — and in cmd/serve and
// cmd/terrain — with no further wiring.
func runMeasures(cfg config) error {
	g, err := datasets.Generate("GrQc", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("GrQc stand-in at scale %g: %d vertices, %d edges\n",
		cfg.scale, g.NumVertices(), g.NumEdges())
	fmt.Printf("%-16s %-7s %8s %10s   %s\n", "Measure", "Basis", "Nt", "t(s)", "Description")
	for _, info := range scalarfield.MeasureInfos() {
		t0 := time.Now()
		terr, err := scalarfield.Analyze(g, info.Name, scalarfield.AnalyzeOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", info.Name, err)
		}
		basis := "vertex"
		if info.Edge {
			basis = "edge"
		}
		fmt.Printf("%-16s %-7s %8d %10.4f   %s\n",
			info.Name, basis, terr.Tree.Len(), time.Since(t0).Seconds(), info.Doc)
	}
	return nil
}
