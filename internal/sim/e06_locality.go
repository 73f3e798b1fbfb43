package sim

import (
	"math/rand"

	"ncast/internal/core"
	"ncast/internal/defect"
	"ncast/internal/metrics"
)

// E6Config parameterises experiment E6 (§1/§7 scalability and locality
// claims: with iid failures of probability p, a working node loses
// connectivity with probability about p·d — essentially only through its
// own parents — and that probability does NOT grow with the network size).
// For each N, networks are built failure-free, failures are injected iid,
// and each working node's connectivity loss is attributed: does the node
// have a failed parent, or did it lose connectivity purely through deeper
// ancestors?
type E6Config struct {
	K      int
	D      int
	P      float64
	Sizes  []int
	Trials int
	Seed   int64
}

// DefaultE6Config returns the standard locality sweep.
func DefaultE6Config() E6Config {
	return E6Config{
		K:      32,
		D:      4,
		P:      0.02,
		Sizes:  []int{200, 500, 1000, 2000, 4000},
		Trials: 5,
		Seed:   6,
	}
}

// E6Row is one network size's measurements.
type E6Row struct {
	N int
	// PLoss is P(working node has connectivity < d).
	PLoss float64
	// PParentFail is P(working node has >= 1 failed parent) — the
	// unavoidable local term, approximately p·d.
	PParentFail float64
	// PLossNoParent is P(loss | no failed parent): the non-local leakage
	// that Theorem 4 says is negligible.
	PLossNoParent float64
	// MeanLossFrac is E[(d-conn)/d] over working nodes (≈ p, §7).
	MeanLossFrac float64
	Working      int
}

// E6Result holds the sweep.
type E6Result struct {
	K, D int
	P    float64
	Rows []E6Row
}

// Table renders the result.
func (r E6Result) Table() *metrics.Table {
	t := metrics.NewTable("E6: locality & scalability — P(connectivity loss) vs N",
		"N", "P(loss)", "P(parent failed)", "P(loss | no parent failed)", "E[loss frac]", "p*d ref")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.PLoss, row.PParentFail, row.PLossNoParent, row.MeanLossFrac, r.P*float64(r.D))
	}
	return t
}

// RunE6 executes experiment E6.
func RunE6(cfg E6Config) (E6Result, error) {
	res := E6Result{K: cfg.K, D: cfg.D, P: cfg.P}
	for ni, n := range cfg.Sizes {
		var loss, parentFail, lossNoParent, noParent, working int
		var lossFracSum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ni)*1000 + int64(trial)))
			c, err := BuildCurtain(cfg.K, cfg.D, n, rng)
			if err != nil {
				return E6Result{}, err
			}
			FailIID(c, cfg.P, rng)
			top := c.Snapshot()
			conns := defect.NodeConnectivity(top, cfg.D)
			for _, id := range c.Nodes() {
				if c.IsFailed(id) {
					continue
				}
				gi := top.Index[id]
				working++
				conn := conns[gi]
				if conn > cfg.D {
					conn = cfg.D
				}
				lossFracSum += float64(cfg.D-conn) / float64(cfg.D)
				lost := conn < cfg.D
				if lost {
					loss++
				}
				clips, err := c.Clips(id)
				if err != nil {
					return E6Result{}, err
				}
				hasFailedParent := false
				for _, cl := range clips {
					if cl.Parent != core.ServerID && c.IsFailed(cl.Parent) {
						hasFailedParent = true
						break
					}
				}
				if hasFailedParent {
					parentFail++
				} else {
					noParent++
					if lost {
						lossNoParent++
					}
				}
			}
		}
		row := E6Row{N: n, Working: working}
		if working > 0 {
			row.PLoss = float64(loss) / float64(working)
			row.PParentFail = float64(parentFail) / float64(working)
			row.MeanLossFrac = lossFracSum / float64(working)
		}
		if noParent > 0 {
			row.PLossNoParent = float64(lossNoParent) / float64(noParent)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
