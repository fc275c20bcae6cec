// Package rng provides deterministic, splittable pseudo-random streams and
// exact samplers for the distributions used throughout the OSPREY
// reproduction (epidemic simulation, MCMC, surrogate modeling).
//
// Reproducibility is a first-class requirement of the paper's workflows:
// every stochastic replicate of the MetaRVM model is "generated using a
// unique random stream seed value" (§3.1.2). Stream supports hierarchical
// splitting so that a workflow, its flows, and its tasks each own an
// independent stream derived deterministically from a root seed.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. The zero value is not valid;
// construct streams with New or Split.
//
// Stream is NOT safe for concurrent use; give each goroutine its own
// stream via Split.
type Stream struct {
	s [4]uint64
	// label records the split path from the root, for debugging and
	// provenance reporting.
	label string
	// spare state for the polar normal method.
	hasSpare bool
	spare    float64
}

// New returns a stream seeded from seed. Two streams created with the same
// seed produce identical sequences on every platform.
func New(seed uint64) *Stream {
	st := &Stream{label: fmt.Sprintf("root(%d)", seed)}
	sm := seed
	for i := range st.s {
		sm, st.s[i] = splitmix64(sm)
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// Split derives an independent child stream identified by label. Splitting
// is deterministic: the same parent state and label always produce the same
// child. The parent stream is not advanced, so splits can be interleaved
// with draws without perturbing either sequence.
func (r *Stream) Split(label string) *Stream {
	h := fnv64a(label)
	child := &Stream{label: r.label + "/" + label}
	sm := r.s[0] ^ bits.RotateLeft64(r.s[2], 19) ^ h
	for i := range child.s {
		sm, child.s[i] = splitmix64(sm)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = h | 1
	}
	return child
}

// SplitN returns n independent child streams labeled label/0 .. label/n-1.
func (r *Stream) SplitN(label string, n int) []*Stream {
	out := make([]*Stream, n)
	for i := range out {
		out[i] = r.Split(fmt.Sprintf("%s/%d", label, i))
	}
	return out
}

// Label reports the split path of the stream from its root seed.
func (r *Stream) Label() string { return r.label }

func splitmix64(x uint64) (next, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	res := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return res
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in the open interval (0, 1), never
// returning exactly zero. Useful as input to inverse-CDF transforms and
// logarithms.
func (r *Stream) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Uniform returns a uniform value in [lo, hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a standard normal draw (mean 0, variance 1) using the
// Marsaglia polar method.
func (r *Stream) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// LogNormal returns exp(N(mu, sigma^2)).
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Exponential returns an exponential draw with the given rate (mean 1/rate).
func (r *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential requires rate > 0")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Gamma returns a draw from Gamma(shape, rate) with mean shape/rate, using
// the Marsaglia–Tsang squeeze method (exact for shape >= 1; boosted for
// shape < 1).
func (r *Stream) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic("rng: Gamma requires shape > 0 and rate > 0")
	}
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(r.Float64Open(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v / rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v / rate
		}
	}
}

// Beta returns a draw from Beta(a, b) via the two-gamma construction.
func (r *Stream) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Binomial returns an exact draw from Binomial(n, p). For small n it sums
// Bernoulli trials; for large n it uses the exact recursive beta-splitting
// method (expected O(log n) gamma draws), so metapopulation transitions over
// compartments with many individuals stay cheap.
func (r *Stream) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial requires n >= 0")
	}
	switch {
	case p <= 0 || n == 0:
		return 0
	case p >= 1:
		return n
	}
	count := 0
	for n > 64 {
		i := (n + 1) / 2
		b := r.Beta(float64(i), float64(n+1-i))
		if b <= p {
			count += i
			p = (p - b) / (1 - b)
			n -= i
		} else {
			p = p / b
			n = i - 1
		}
		if p <= 0 {
			return count
		}
		if p >= 1 {
			return count + n
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			count++
		}
	}
	return count
}

// Poisson returns an exact draw from Poisson(mean) using Knuth's method for
// small means and the Ahrens–Dieter gamma-reduction recursion for large
// means.
func (r *Stream) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson requires mean >= 0")
	}
	count := 0
	for mean > 30 {
		m := int(math.Floor(7 * mean / 8))
		g := r.Gamma(float64(m), 1)
		if g <= mean {
			count += m
			mean -= g
		} else {
			return count + r.Binomial(m-1, mean/g)
		}
	}
	l := math.Exp(-mean)
	k, prod := 0, 1.0
	for {
		prod *= r.Float64()
		if prod <= l {
			return count + k
		}
		k++
	}
}

// NegBinomial returns a draw with the (size, prob) parameterization: the
// number of failures before `size` successes, implemented as a
// gamma-mixed Poisson so that non-integer size (overdispersion) works.
func (r *Stream) NegBinomial(size, prob float64) int {
	if size <= 0 || prob <= 0 || prob > 1 {
		panic("rng: NegBinomial requires size > 0 and prob in (0,1]")
	}
	if prob == 1 {
		return 0
	}
	lambda := r.Gamma(size, prob/(1-prob))
	return r.Poisson(lambda)
}

// Dirichlet fills out with a draw from Dirichlet(alpha). len(out) must equal
// len(alpha).
func (r *Stream) Dirichlet(alpha []float64, out []float64) {
	if len(alpha) != len(out) {
		panic("rng: Dirichlet length mismatch")
	}
	sum := 0.0
	for i, a := range alpha {
		out[i] = r.Gamma(a, 1)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// Multinomial distributes n trials over the given probability weights
// (which need not be normalized), returning a count per category. The draw
// is exact, performed as a chain of conditional binomials.
func (r *Stream) Multinomial(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Multinomial requires nonnegative weights")
		}
		total += w
	}
	out := make([]int, len(weights))
	remaining := n
	for i, w := range weights {
		if remaining == 0 {
			break
		}
		if i == len(weights)-1 {
			out[i] = remaining
			break
		}
		if total <= 0 {
			break
		}
		k := r.Binomial(remaining, w/total)
		out[i] = k
		remaining -= k
		total -= w
	}
	return out
}

// MarshalBinary encodes the full stream state (generator state, spare
// normal, label) so long-running workflows can checkpoint and resume with
// bit-identical randomness.
func (r *Stream) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4*8+9+len(r.label))
	for _, s := range r.s {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], s)
		buf = append(buf, b[:]...)
	}
	var sp [8]byte
	binary.LittleEndian.PutUint64(sp[:], math.Float64bits(r.spare))
	buf = append(buf, sp[:]...)
	if r.hasSpare {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, r.label...)
	return buf, nil
}

// UnmarshalBinary restores a stream saved with MarshalBinary.
func (r *Stream) UnmarshalBinary(data []byte) error {
	const fixed = 4*8 + 9
	if len(data) < fixed {
		return fmt.Errorf("rng: truncated stream state (%d bytes)", len(data))
	}
	for i := range r.s {
		r.s[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	r.spare = math.Float64frombits(binary.LittleEndian.Uint64(data[32:]))
	r.hasSpare = data[40] == 1
	r.label = string(data[fixed:])
	return nil
}
