package main

// rand is a splitmix64 stream: the benchmark's inputs are a pure function
// of the seed it is given.
type rand struct{ s uint64 }

func newRand(seed uint64) *rand { return &rand{s: seed} }

func (r *rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform number in [0, 1).
func (r *rand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// derive mixes a seed with labels into an independent seed.
func derive(seed uint64, labels ...uint64) uint64 {
	r := newRand(seed)
	for _, l := range labels {
		r.s ^= l * 0xd6e8feb86659fd93
		r.next()
	}
	return r.next()
}
