package main

// rng is a splitmix64 stream: the benchmark derives every input it
// generates from the workload seed through it.
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: seed*0x9e3779b97f4a7c15 ^ stream}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
