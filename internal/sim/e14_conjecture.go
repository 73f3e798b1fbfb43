package sim

import (
	"math/rand"

	"ncast/internal/core"
	"ncast/internal/defect"
	"ncast/internal/metrics"
)

// E14Config parameterises experiment E14 (§7's open conjecture: "the
// probability of losing κ ≪ d threads of connectivity must be about the
// same as the probability of losing κ parents", which would imply failure
// effects are fully locally contained, not just at the first moment).
// The runner measures, over many iid-failure trials, the distribution of
// per-node connectivity deficits and compares it with the distribution of
// per-node failed-parent counts.
type E14Config struct {
	K, D   int
	N      int
	P      float64
	Trials int
	Seed   int64
}

// DefaultE14Config returns the standard conjecture check.
func DefaultE14Config() E14Config {
	return E14Config{K: 32, D: 4, N: 800, P: 0.03, Trials: 6, Seed: 14}
}

// E14Row compares the two distributions at one deficit level.
type E14Row struct {
	Kappa int
	// PDeficit is P(node lost exactly κ units of connectivity).
	PDeficit float64
	// PParents is P(node has exactly κ failed parents).
	PParents float64
	// Ratio is PDeficit / PParents (conjecture: ≈ 1 for κ ≪ d).
	Ratio float64
}

// E14Result holds the comparison.
type E14Result struct {
	K, D int
	P    float64
	Rows []E14Row
	// Samples is the number of working-node observations.
	Samples int
}

// Table renders the result.
func (r E14Result) Table() *metrics.Table {
	t := metrics.NewTable("E14: §7 conjecture — P(lose κ threads) vs P(lose κ parents)",
		"κ", "P(deficit=κ)", "P(failed parents=κ)", "ratio")
	for _, row := range r.Rows {
		t.AddRow(row.Kappa, row.PDeficit, row.PParents, row.Ratio)
	}
	return t
}

// RunE14 executes experiment E14.
func RunE14(cfg E14Config) (E14Result, error) {
	res := E14Result{K: cfg.K, D: cfg.D, P: cfg.P}
	deficitCount := make([]int, cfg.D+1)
	parentCount := make([]int, cfg.D+1)
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
		c, err := BuildCurtain(cfg.K, cfg.D, cfg.N, rng)
		if err != nil {
			return E14Result{}, err
		}
		FailIID(c, cfg.P, rng)
		top := c.Snapshot()
		conns := defect.NodeConnectivity(top, cfg.D)
		for _, id := range c.Nodes() {
			if c.IsFailed(id) {
				continue
			}
			gi := top.Index[id]
			conn := conns[gi]
			if conn > cfg.D {
				conn = cfg.D
			}
			deficitCount[cfg.D-conn]++
			clips, err := c.Clips(id)
			if err != nil {
				return E14Result{}, err
			}
			failed := 0
			for _, cl := range clips {
				if cl.Parent != core.ServerID && c.IsFailed(cl.Parent) {
					failed++
				}
			}
			if failed > cfg.D {
				failed = cfg.D
			}
			parentCount[failed]++
			res.Samples++
		}
	}
	for kappa := 0; kappa <= cfg.D; kappa++ {
		row := E14Row{Kappa: kappa}
		if res.Samples > 0 {
			row.PDeficit = float64(deficitCount[kappa]) / float64(res.Samples)
			row.PParents = float64(parentCount[kappa]) / float64(res.Samples)
		}
		if row.PParents > 0 {
			row.Ratio = row.PDeficit / row.PParents
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
