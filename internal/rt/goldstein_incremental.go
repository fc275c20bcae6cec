package rt

import "math"

// halfLog2Pi is the Gaussian normalizing constant of every observation
// term, computed with stats.LogNormalPDFLog's expression.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// goldsteinState is the full intermediate state of one posterior evaluation:
// the interpolated daily log-R series, its exponentials, the renewal
// incidence, and the per-observation shedding loads and log-likelihood
// terms.
type goldsteinState struct {
	logR, expLogR, inc []float64
	load, term         []float64
}

func newGoldsteinState(days, nObs int) *goldsteinState {
	return &goldsteinState{
		logR:    make([]float64, days),
		expLogR: make([]float64, days),
		inc:     make([]float64, days),
		load:    make([]float64, nObs),
		term:    make([]float64, nObs),
	}
}

// goldsteinTarget is the mcmc.ComponentTarget form of the Goldstein
// posterior. The component-at-a-time sampler changes one coordinate per
// proposal, so most of the evaluation is unchanged from the committed point:
//
//   - a log-R knot move only perturbs the interpolated series between its
//     neighboring knots, and the renewal recursion only diverges from that
//     day forward;
//   - a noise-scale (sigma) move leaves the entire latent epidemic and the
//     shedding loads untouched — only the observation densities rerun;
//   - a seed move leaves log-R (and its exponentials, the expensive part of
//     the renewal loop) untouched.
//
// Everything that is recomputed uses the same operations on the same inputs,
// in the same order, as goldsteinModel.logPosterior; everything else is
// copied bit-for-bit from the committed point. The chain this target
// produces is therefore bit-identical to running the plain posterior — which
// TestGoldsteinIncrementalMatchesFull enforces.
//
// The arithmetic is stats.LogNormalPDFLog's, with its per-call constants
// hoisted: log(concentration) is taken once per observation, log sigma once
// per call. Its x <= 0 || sigma <= 0 guard is dropped: EstimateGoldstein
// rejects nonpositive concentrations and sigma is an exponential. The
// convolution kernels are stored reversed so each sum runs
// over two equal-length windows (no bounds checks) while still adding lag
// 1, 2, … in logPosterior's order.
type goldsteinTarget struct {
	m         *goldsteinModel
	cur, prop *goldsteinState
	committed bool
	propOK    bool

	logConc []float64 // log(obs[i].Concentration)
	genRev  []float64 // genRev[j] = genPMF[maxLag-j], lags maxLag..1
	shedRev []float64 // shedRev[j] = shedPMF[len-1-j], lags len-1..0
}

func newGoldsteinTarget(m *goldsteinModel) *goldsteinTarget {
	t := &goldsteinTarget{
		m:       m,
		cur:     newGoldsteinState(m.days, len(m.obs)),
		prop:    newGoldsteinState(m.days, len(m.obs)),
		logConc: make([]float64, len(m.obs)),
		genRev:  make([]float64, len(m.genPMF)-1),
		shedRev: make([]float64, len(m.shedPMF)),
	}
	for i, o := range m.obs {
		t.logConc[i] = math.Log(o.Concentration)
	}
	for j := range t.genRev {
		t.genRev[j] = m.genPMF[len(m.genPMF)-1-j]
	}
	for j := range t.shedRev {
		t.shedRev[j] = m.shedPMF[len(m.shedPMF)-1-j]
	}
	return t
}

func (t *goldsteinTarget) LogDensityAt(theta []float64, changed int) float64 {
	m := t.m
	nk := len(m.knots)
	t.propOK = false
	knotVals := theta[:nk]
	logSigma := theta[nk]
	logSeed := theta[nk+1]
	if logSigma < -5 || logSigma > 3 || logSeed < -25 || logSeed > 25 {
		return math.Inf(-1)
	}
	sigma := math.Exp(logSigma)
	logSig := math.Log(sigma)

	// Priors — always recomputed, in logPosterior's exact order.
	lp := 0.0
	lp += -0.5 * (knotVals[0] / 0.5) * (knotVals[0] / 0.5)
	for i := 1; i < nk; i++ {
		d := (knotVals[i] - knotVals[i-1]) / m.rwSigma
		lp += -0.5 * d * d
	}
	lp += -0.5 * ((logSigma - math.Log(0.5)) / 1.0) * ((logSigma - math.Log(0.5)) / 1.0)
	lp += -0.5 * (logSeed / 10.0) * (logSeed / 10.0)

	// Influence range of the changed coordinate.
	logRFrom, logRTo := 0, m.days // segment of logR to rebuild
	incFrom := 0                  // first day of the renewal suffix to rebuild
	sigmaMoved := true
	if t.committed && changed >= 0 {
		sigmaMoved = changed == nk
		switch {
		case changed < nk: // a log-R knot
			if changed > 0 {
				logRFrom = m.knots[changed-1] + 1
			}
			if changed+1 < nk {
				logRTo = m.knots[changed+1] + 1
				if logRTo > m.days {
					logRTo = m.days
				}
			}
			incFrom = logRFrom
			if incFrom < m.seedDays {
				incFrom = m.seedDays
			}
		case changed == nk: // observation noise: latent epidemic untouched
			logRFrom, logRTo, incFrom = m.days, m.days, m.days
		default: // seed: logR untouched, renewal rebuilt from day 0
			logRFrom, logRTo = m.days, m.days
		}
	}
	cur, p := t.cur, t.prop

	// Interpolated logR and its exponentials.
	copy(p.logR[:logRFrom], cur.logR[:logRFrom])
	copy(p.logR[logRTo:], cur.logR[logRTo:])
	copy(p.expLogR[:logRFrom], cur.expLogR[:logRFrom])
	copy(p.expLogR[logRTo:], cur.expLogR[logRTo:])
	if logRFrom < logRTo {
		m.dailyLogRRange(knotVals, p.logR, logRFrom, logRTo)
		for d := logRFrom; d < logRTo; d++ {
			p.expLogR[d] = math.Exp(p.logR[d])
		}
	}

	// Renewal recursion over the affected suffix. lambda sums lags 1..n:
	// win[k] is inc[d-n+k] and gen[k] its lag-(n-k) weight, so walking k
	// down from n-1 adds lag 1 first.
	seed := math.Exp(logSeed)
	inc := p.inc
	copy(inc[:incFrom], cur.inc[:incFrom])
	maxLag := len(t.genRev)
	for d := incFrom; d < m.days; d++ {
		if d < m.seedDays {
			inc[d] = seed
			continue
		}
		n := min(maxLag, d)
		win := inc[d-n : d]
		gen := t.genRev[maxLag-n:]
		gen = gen[:len(win)]
		lambda := 0.0
		for k := len(win) - 1; k >= 0; k-- {
			lambda += win[k] * gen[k]
		}
		inc[d] = p.expLogR[d] * lambda
	}

	// Observation model: loads rerun only where the incidence moved, the
	// log-normal densities additionally when sigma moved. The load sums
	// lags 0..n the same way the renewal sums lags 1..n.
	nShed := len(t.shedRev)
	load, term := p.load[:len(m.obs)], p.term[:len(m.obs)]
	logConc := t.logConc[:len(m.obs)]
	for oi := range m.obs {
		day := m.obs[oi].Day
		if day >= incFrom {
			n := min(nShed-1, day)
			win := inc[day-n : day+1]
			shed := t.shedRev[nShed-1-n:]
			shed = shed[:len(win)]
			l := 0.0
			for k := len(win) - 1; k >= 0; k-- {
				l += win[k] * shed[k]
			}
			load[oi] = l
		} else {
			load[oi] = cur.load[oi]
		}
		if load[oi] <= 0 {
			return math.Inf(-1)
		}
		if day >= incFrom || sigmaMoved {
			lx := logConc[oi]
			z := (lx - math.Log(load[oi])) / sigma
			term[oi] = -lx - logSig - halfLog2Pi - 0.5*z*z
		} else {
			term[oi] = cur.term[oi]
		}
		lp += term[oi]
	}
	if math.IsNaN(lp) {
		return math.Inf(-1)
	}
	t.propOK = true
	return lp
}

func (t *goldsteinTarget) Commit() {
	if !t.propOK {
		panic("rt: Commit of an invalid Goldstein proposal")
	}
	t.cur, t.prop = t.prop, t.cur
	t.committed = true
	t.propOK = false
}
