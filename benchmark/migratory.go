package main

import (
	"fmt"
	"math/rand"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
)

// migratory is the benchmark's own application: Table 1's lock and
// barrier costs as a whole program. A few locks each guard a small
// record on its own page; every processor repeatedly takes a lock,
// increments every word of its record and releases, so each critical
// section is a lock hand-off, a page refetch, a one-page diff with its
// flush fence, and a write notice to the previous holder. Kernels and
// row access do almost none of the work; the rank-0 coordinator and
// small-frame latency do nearly all of it.
type migratory struct {
	Locks, Words int // records, and words per record
	NProcs       int // processors the run will have; Verify's expected total needs it
	K            int // critical sections per processor, a multiple of Every
	Every        int // a barrier after this many critical sections

	// order is the lock sequence of one barrier interval, Every long,
	// holding every lock equally often; each processor starts its walk
	// at a different offset. The seed shuffles it.
	order []int

	base int
}

func newMigratory(seed int64, nprocs int) *migratory {
	m := &migratory{Locks: 4, Words: 8, NProcs: nprocs, K: 20000, Every: 1000}
	m.order = make([]int, m.Every)
	for i := range m.order {
		m.order[i] = i % m.Locks
	}
	if seed != 0 {
		rand.New(rand.NewSource(seed)).Shuffle(len(m.order), func(i, j int) {
			m.order[i], m.order[j] = m.order[j], m.order[i]
		})
	}
	return m
}

func (m *migratory) Name() string { return "Migratory" }

func (m *migratory) DataSet() string {
	return fmt.Sprintf("%d locks x %d-word records, %d critical sections/proc", m.Locks, m.Words, m.K)
}

func (m *migratory) Shape() apps.Shape {
	l := apps.NewLayout(apps.PageWords)
	m.base = l.Array(m.Locks * apps.PageWords)
	return apps.Shape{SharedWords: l.Words(), Locks: m.Locks}
}

func (m *migratory) record(lock int) int { return m.base + lock*apps.PageWords }

func (m *migratory) Body(p apps.Proc) {
	p.BeginInit()
	if p.ID() == 0 {
		for l := 0; l < m.Locks; l++ {
			for w := 0; w < m.Words; w++ {
				p.Store(m.record(l)+w, 0)
			}
		}
	}
	p.EndInit()

	at := p.ID() * m.Every / p.NProcs()
	for k := 0; k < m.K; k++ {
		l := m.order[(at+k)%m.Every]
		rec := m.record(l)
		p.Lock(l)
		for w := 0; w < m.Words; w++ {
			p.Store(rec+w, p.Load(rec+w)+1)
		}
		p.Unlock(l)
		if (k+1)%m.Every == 0 {
			p.Barrier()
		}
	}
}

// SeqTime is zero: the program has no modelled computation.
func (m *migratory) SeqTime(costs.Model) int64 { return 0 }

// Verify checks that no increment was lost: the words of a record
// agree, and the records add up to every critical section run.
func (m *migratory) Verify(c apps.Memory) error {
	var total int64
	for l := 0; l < m.Locks; l++ {
		first := c.ReadShared(m.record(l))
		for w := 1; w < m.Words; w++ {
			if v := c.ReadShared(m.record(l) + w); v != first {
				return fmt.Errorf("Migratory: record %d word %d = %d, word 0 = %d", l, w, v, first)
			}
		}
		total += first
	}
	if want := int64(m.NProcs * m.K); total != want {
		return fmt.Errorf("Migratory: %d increments recorded, want %d", total, want)
	}
	return nil
}
