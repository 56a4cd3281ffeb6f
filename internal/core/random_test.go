package core

import (
	"math/rand"
	"testing"
)

// TestRandomDRFPrograms generates random barrier-synchronized
// data-race-free programs and checks every read against a sequential
// model, under every protocol. Each round assigns every address a
// unique writer, so programs are DRF by construction while still
// producing arbitrary page-level multi-writer false sharing.
func TestRandomDRFPrograms(t *testing.T) {
	const (
		words  = 16 * 24 // 24 pages of 16 words
		rounds = 6
		writes = 40
		reads  = 60
	)
	for _, k := range allKinds {
		for seed := int64(1); seed <= 3; seed++ {
			// Build the script and its sequential model up front so
			// all processors agree on it.
			rng := rand.New(rand.NewSource(seed))
			model := make([]int64, words)
			type op struct{ addr, proc int }
			script := make([][]op, rounds) // writes per round
			checks := make([][]op, rounds) // reads per round
			for r := 0; r < rounds; r++ {
				perm := rng.Perm(words)
				for w := 0; w < writes; w++ {
					script[r] = append(script[r], op{perm[w], rng.Intn(16)})
				}
				for c := 0; c < reads; c++ {
					checks[r] = append(checks[r], op{rng.Intn(words), rng.Intn(16)})
				}
			}
			expected := make([][]int64, rounds)
			for r := 0; r < rounds; r++ {
				for _, o := range script[r] {
					model[o.addr] = int64(1000*r + o.addr)
				}
				expected[r] = append([]int64(nil), model...)
			}

			c, err := New(Config{
				Nodes: 4, ProcsPerNode: 4, Protocol: k,
				PageWords: 16, SharedWords: words,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Run(func(p *Proc) {
				// A processor that has seen a wrong value reports it once
				// and stops checking, but keeps storing and arriving at
				// every remaining barrier: returning would strand its
				// peers there until the test timeout, whose panic drops
				// the report.
				wrong := false
				for r := 0; r < rounds; r++ {
					for _, o := range script[r] {
						if o.proc == p.ID() {
							p.Store(o.addr, int64(1000*r+o.addr))
						}
					}
					p.Barrier()
					for _, o := range checks[r] {
						if wrong || o.proc != p.ID() {
							continue
						}
						if got := p.Load(o.addr); got != expected[r][o.addr] {
							t.Errorf("%v seed %d round %d: proc %d read [%d] = %d, want %d",
								k, seed, r, p.ID(), o.addr, got, expected[r][o.addr])
							wrong = true
						}
					}
					p.Barrier()
				}
			})
			if t.Failed() {
				return
			}
			// Post-run, the master copies (or exclusive frames) must
			// hold the final model state.
			for addr, want := range expected[rounds-1] {
				if got := c.ReadShared(addr); got != want {
					t.Fatalf("%v seed %d: final memory [%d] = %d, want %d",
						k, seed, addr, got, want)
				}
			}
		}
	}
}
