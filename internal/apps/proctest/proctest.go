// Package proctest is the contract suite of apps.Proc. The protocols
// promise a data-race-free program release-consistent memory (paper
// §2); each case here is such a program, written once against
// apps.Proc and run on any engine through an Engine hook: coherence
// litmus programs, random data-race-free programs, and the small
// applications. Every case is data-race-free by construction, so each
// read has one right value, and the case checks it.
//
// A processor body never returns before a barrier or flag a peer waits
// at: a wrong read is recorded, the program's Verify reports the first
// one, and the body goes on. Engines' tests import this package;
// nothing links it into a binary.
package proctest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
)

// Engine runs a program on a cluster of nodes×ppn processors with
// pageWords-word pages and returns the first error: its own, or the
// program's Verify's. It calls mk once per process it runs, for a
// program value of that process's own.
type Engine func(t *testing.T, mk func() apps.App, nodes, ppn, pageWords int) error

// Case is one program of the suite: Run runs it on e at nodes×ppn and
// fails t with any wrong read or final word.
type Case struct {
	Name string
	Run  func(t *testing.T, e Engine, nodes, ppn int)
}

// Prog is a hand-written program over the shared space: Code runs on
// every processor, and Check, if set, inspects the final memory once
// no read went wrong.
type Prog struct {
	Space apps.Shape
	Code  func(p apps.Proc)
	Check func(m apps.Memory) error

	mu    sync.Mutex
	wrong int    // reads reported wrong
	first string // the first of them
}

func (a *Prog) Name() string              { return "Prog" }
func (a *Prog) DataSet() string           { return "test program" }
func (a *Prog) Shape() apps.Shape         { return a.Space }
func (a *Prog) Body(p apps.Proc)          { a.Code(p) }
func (a *Prog) SeqTime(costs.Model) int64 { return 0 }

func (a *Prog) Verify(m apps.Memory) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.wrong > 0 {
		return fmt.Errorf("%s (%d wrong reads)", a.first, a.wrong)
	}
	if a.Check != nil {
		return a.Check(m)
	}
	return nil
}

// want records got as a wrong read, described by what and args, unless
// it is v.
func (a *Prog) want(got, v int64, what string, args ...any) {
	if got == v {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.wrong++; a.wrong == 1 {
		a.first = fmt.Sprintf(what+" = %d, want %d", append(args, got, v)...)
	}
}

// run runs a on e and fails t with its error.
func run(t *testing.T, e Engine, nodes, ppn, pageWords int, a *Prog) {
	t.Helper()
	if err := e(t, func() apps.App { return a }, nodes, ppn, pageWords); err != nil {
		t.Error(err)
	}
}

// pw is the page size of the litmus programs: small, so that a few
// dozen words span several pages.
const pw = 16

// litmus is a case that runs the program build makes for procs
// processors once, at pageWords-word pages.
func litmus(name string, pageWords int, build func(procs int) *Prog) Case {
	return Case{name, func(t *testing.T, e Engine, nodes, ppn int) {
		run(t, e, nodes, ppn, pageWords, build(nodes*ppn))
	}}
}

// Litmus lists every hand-written and random program.
var Litmus = []Case{
	StoreLoad, CrossNode, FalseSharing, RepeatedPhases, Migratory, LockCounters,
	LockedRecords, ProducerConsumer, FlagChain, RotatingWriter, PageSizes,
	DisjointWriters, RandomDRF, RandomDRFFlags, Bands, RandomDRFInit,
}

// StoreLoad has each processor store words and a float of its own and
// read them back, with no synchronization at all.
var StoreLoad = litmus("StoreLoad", pw, func(procs int) *Prog {
	const span = 16 * pw
	a := &Prog{Space: apps.Shape{SharedWords: procs * span}}
	a.Code = func(p apps.Proc) {
		base := p.ID() * span
		for i := base; i < base+100; i++ {
			p.Store(i, int64(i*i))
		}
		for i := base; i < base+100; i++ {
			a.want(p.Load(i), int64(i*i), "proc %d Load(%d)", p.ID(), i)
		}
		bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
		p.StoreF(base+200, 3.25)
		a.want(bits(p.LoadF(base+200)), bits(3.25), "proc %d LoadF bits", p.ID())
	}
	return a
})

// CrossNode has processor 0 write 100 words, over seven pages, and
// every processor read them after a barrier. ProducerConsumer does the
// same through a flag, Gauss-style: processor 0 sets it, and every
// other processor waits on it.
var (
	CrossNode        = publish("CrossNode", false)
	ProducerConsumer = publish("ProducerConsumer", true)
)

func publish(name string, flag bool) Case {
	return litmus(name, pw, func(procs int) *Prog {
		const words = 100
		a := &Prog{Space: apps.Shape{SharedWords: words, Flags: 1}}
		a.Code = func(p apps.Proc) {
			if p.ID() == 0 {
				for i := 0; i < words; i++ {
					p.Store(i, int64(7*i+1))
				}
			}
			switch {
			case !flag:
				p.Barrier()
			case p.ID() == 0:
				p.SetFlag(0)
				return
			default:
				p.WaitFlag(0)
			}
			for i := 0; i < words; i++ {
				a.want(p.Load(i), int64(7*i+1), "proc %d reads %d", p.ID(), i)
			}
		}
		return a
	})
}

// FalseSharing has every processor write its own word of one page
// between two barriers; afterwards every processor must see every
// write, which takes a multi-writer merge at the home. DisjointWriters
// repeats that for 20 rounds on one application-sized page.
var (
	FalseSharing    = disjoint("FalseSharing", 1, pw)
	DisjointWriters = disjoint("DisjointWriters", 20, apps.PageWords)
)

func disjoint(name string, rounds, pageWords int) Case {
	return litmus(name, pageWords, func(procs int) *Prog {
		a := &Prog{Space: apps.Shape{SharedWords: procs}}
		a.Code = func(p apps.Proc) {
			for r := 1; r <= rounds; r++ {
				p.Store(p.ID(), int64(100*r+p.ID()))
				p.Barrier()
				for w := 0; w < procs; w++ {
					a.want(p.Load(w), int64(100*r+w), "round %d: proc %d sees word %d", r, p.ID(), w)
				}
				p.Barrier()
			}
		}
		return a
	})
}

// RepeatedPhases alternates even and odd processors incrementing their
// own words, SOR-like, with a barrier between phases.
var RepeatedPhases = litmus("RepeatedPhases", pw, func(procs int) *Prog {
	const rounds = 8
	a := &Prog{Space: apps.Shape{SharedWords: procs}}
	a.Code = func(p apps.Proc) {
		me := p.ID()
		for r := 0; r < rounds; r++ {
			if r%2 == me%2 {
				p.Store(me, p.Load(me)+1)
			}
			p.Barrier()
		}
		for i := 0; i < procs; i++ {
			a.want(p.Load(i), rounds/2, "proc %d sees counter %d", p.ID(), i)
		}
	}
	return a
})

// Migratory has every processor increment one counter under one lock
// ten times: the lock, and the page, migrate through every processor
// (Water's force phase). LockCounters does the same on four pages, each
// under its own lock, every processor starting from a different lock.
// Sums commute, so the totals do not depend on the order of grants.
var (
	Migratory    = counters("Migratory", 1)
	LockCounters = counters("LockCounters", 4)
)

func counters(name string, locks int) Case {
	return litmus(name, pw, func(procs int) *Prog {
		const per = 10
		want := make([]int64, locks)
		for id := 0; id < procs; id++ {
			for i := 0; i < per; i++ {
				want[(id+i)%locks]++
			}
		}
		a := &Prog{Space: apps.Shape{SharedWords: locks * pw, Locks: locks}}
		a.Code = func(p apps.Proc) {
			for i := 0; i < per; i++ {
				l := (p.ID() + i) % locks
				p.Lock(l)
				p.Store(l*pw, p.Load(l*pw)+1)
				p.Unlock(l)
			}
			p.Barrier()
			for l, v := range want {
				a.want(p.Load(l*pw), v, "proc %d sees counter %d", p.ID(), l)
			}
		}
		return a
	})
}

// LockedRecords has every processor update small records, each under a
// lock of its own, in a random order of its own, many times over. Four
// records share a page, so while one processor holds a lock its node
// often holds another record's unflushed writes, or has a fetch or a diff
// of the page in flight for another processor. Each critical section
// finds its record's words equal and adds one to each, and the records
// add up to every critical section run.
var LockedRecords = litmus("LockedRecords", pw, func(procs int) *Prog {
	const locks, words, per = 8, pw / 4, 200
	a := &Prog{Space: apps.Shape{SharedWords: locks * words, Locks: locks}}
	a.Code = func(p apps.Proc) {
		rng := rand.New(rand.NewSource(int64(p.ID())))
		for i := 0; i < per; i++ {
			l := rng.Intn(locks)
			rec := l * words
			p.Lock(l)
			v := p.Load(rec)
			for w := 0; w < words; w++ {
				a.want(p.Load(rec+w), v, "proc %d, section %d: record %d word %d", p.ID(), i, l, w)
				p.Store(rec+w, v+1)
			}
			p.Unlock(l)
		}
		p.Barrier()
	}
	a.Check = func(m apps.Memory) error {
		var total int64
		for l := 0; l < locks; l++ {
			total += m.ReadShared(l * words)
		}
		if want := int64(procs * per); total != want {
			return fmt.Errorf("the records count %d critical sections, want %d", total, want)
		}
		return nil
	}
	return a
})

// FlagChain passes a flag down the processors: each waits for its
// predecessor's, reads what every earlier processor wrote, writes half a
// page of its own and sets its flag. Release/acquire pairs are
// transitive, so processor k sees the writes of all k before it.
var FlagChain = litmus("FlagChain", pw, func(procs int) *Prog {
	const run = pw / 2
	a := &Prog{Space: apps.Shape{SharedWords: procs * run, Flags: procs}}
	a.Code = func(p apps.Proc) {
		me := p.ID()
		if me > 0 {
			p.WaitFlag(me - 1)
		}
		for i := 0; i < me*run; i++ {
			a.want(p.Load(i), int64(i+1), "proc %d chain read %d", me, i)
		}
		for i := me * run; i < (me+1)*run; i++ {
			p.Store(i, int64(i+1))
		}
		p.SetFlag(me)
	}
	return a
})

// RotatingWriter hands one word from processor to processor, a round
// each, twice around the cluster; every processor reads every round's
// value between the round's two barriers.
var RotatingWriter = litmus("RotatingWriter", pw, func(procs int) *Prog {
	a := &Prog{Space: apps.Shape{SharedWords: pw}}
	a.Code = func(p apps.Proc) {
		for round := 0; round < 2*procs; round++ {
			if round%procs == p.ID() {
				p.Store(3, int64(round))
			}
			p.Barrier()
			a.want(p.Load(3), int64(round), "proc %d round %d reads", p.ID(), round)
			p.Barrier()
		}
	}
	return a
})

// PageSizes runs a false-sharing-free exchange at pages of 8, 100 and
// 1024 words: a power of two below the litmus size, one that is not a
// power of two, and the applications' size. Each processor writes the
// first word of its own page, and every processor reads them all.
var PageSizes = Case{"PageSizes", func(t *testing.T, e Engine, nodes, ppn int) {
	procs := nodes * ppn
	for _, size := range []int{8, 100, 1024} {
		a := &Prog{Space: apps.Shape{SharedWords: size * procs}}
		a.Code = func(p apps.Proc) {
			p.Store(p.ID()*size, int64(p.ID()+1))
			p.Barrier()
			for i := 0; i < procs; i++ {
				a.want(p.Load(i*size), int64(i+1), "%d-word pages: proc %d reads page %d", size, p.ID(), i)
			}
		}
		run(t, e, nodes, ppn, size, a)
	}
}}

// Bands is the placement program: processor 0 initializes every page
// inside the init epoch, and then, interval after interval, each
// processor rewrites half the words of its own band of pages, alternating
// parity, and reads the other half of its neighbours' edge pages, which
// they wrote in the interval before. Every band page has one writer from
// the first interval on. Two more pages do not: processor 0 and the last
// processor both write the shared page in the first interval, and
// processor 0 first writes the late page in the fourth interval, which
// everyone reads after it.
var Bands = litmus("Bands", pw, func(procs int) *Prog {
	const band, intervals = 2, 8 // pages per processor; intervals after EndInit
	shared, late := procs*band*pw, (procs*band+1)*pw
	a := &Prog{Space: apps.Shape{SharedWords: late + pw}}
	initial := func(addr int) int64 { return int64(-addr - 1) }
	written := func(i, addr int) int64 { return int64(1000*i + addr) }
	// bandWord is band word addr as interval i leaves it: the value of
	// the last interval up to i whose parity it has, or its initial one.
	bandWord := func(i, addr int) int64 {
		if i%2 != addr%2 {
			i--
		}
		if i < 1 {
			return initial(addr)
		}
		return written(i, addr)
	}
	a.Code = func(p apps.Proc) {
		me := p.ID()
		p.BeginInit()
		if me == 0 {
			for addr := 0; addr < late+pw; addr++ {
				p.Store(addr, initial(addr))
			}
		}
		p.EndInit()
		for i := 1; i <= intervals; i++ {
			for addr := me * band * pw; addr < (me+1)*band*pw; addr++ {
				if addr%2 == i%2 {
					p.Store(addr, written(i, addr))
				}
			}
			if i == 1 && me == 0 {
				p.Store(shared, 1)
			}
			if i == 1 && me == procs-1 {
				p.Store(shared+1, 2)
			}
			if i == 4 && me == 0 {
				for addr := late; addr < late+pw; addr++ {
					p.Store(addr, written(i, addr))
				}
			}
			// The neighbours' edge pages, at the parity written last
			// interval.
			for _, q := range []int{me - 1, me + 1} {
				if q < 0 || q >= procs {
					continue
				}
				edge := q * band * pw
				if q < me {
					edge += (band - 1) * pw
				}
				for addr := edge + (i-1)%2; addr < edge+pw; addr += 2 {
					a.want(p.Load(addr), bandWord(i-1, addr), "interval %d: proc %d reads [%d]", i, me, addr)
				}
			}
			if i > 1 {
				a.want(p.Load(shared), 1, "interval %d: proc %d reads shared word 0", i, me)
				a.want(p.Load(shared+1), 2, "interval %d: proc %d reads shared word 1", i, me)
			}
			if i > 4 {
				for addr := late; addr < late+pw; addr++ {
					a.want(p.Load(addr), written(4, addr), "interval %d: proc %d reads late [%d]", i, me, addr)
				}
			}
			p.Barrier()
		}
	}
	a.Check = func(m apps.Memory) error {
		for addr := 0; addr < late+pw; addr++ {
			want := bandWord(intervals, addr)
			switch {
			case addr == shared:
				want = 1
			case addr == shared+1:
				want = 2
			case addr >= late:
				want = written(4, addr)
			case addr > shared:
				want = initial(addr)
			}
			if got := m.ReadShared(addr); got != want {
				return fmt.Errorf("final memory [%d] = %d, want %d", addr, got, want)
			}
		}
		return nil
	}
	return a
})

// RandomDRF runs three seeded random programs: rounds of writes in which
// every word has at most one writer, then reads checked against a
// sequential model, barriers between the two. The programs are
// data-race-free by construction and still produce arbitrary page-level
// multi-writer false sharing.
var RandomDRF = randomDRF("RandomDRF", false)

// RandomDRFInit is RandomDRF with every word's initial value written by
// processor 0 inside the init epoch, so the rounds are the first writes
// after EndInit.
var RandomDRFInit = Case{"RandomDRFInit", func(t *testing.T, e Engine, nodes, ppn int) {
	for seed := int64(1); seed <= 3 && !t.Failed(); seed++ {
		run(t, e, nodes, ppn, pw, drf(seed, nodes*ppn, false, true))
	}
}}

// RandomDRFFlags is RandomDRF with flags for barriers: each processor
// sets its writes-done flag, waits for those of just the processors
// whose words of the round it reads, reads, then sets its round-done
// flag and waits for everyone's. A read may thus follow an unrelated
// release whose notices are still in flight; no value depends on the
// order of grants, as no lock is taken.
var RandomDRFFlags = randomDRF("RandomDRFFlags", true)

func randomDRF(name string, flags bool) Case {
	return Case{name, func(t *testing.T, e Engine, nodes, ppn int) {
		for seed := int64(1); seed <= 3 && !t.Failed(); seed++ {
			run(t, e, nodes, ppn, pw, drf(seed, nodes*ppn, flags, false))
		}
	}}
}

// drf builds random program seed for procs processors over 24 pages,
// with every word's initial value written in the init epoch if init is
// set, and zero otherwise.
func drf(seed int64, procs int, flags, init bool) *Prog {
	const words, rounds, writes, reads = pw * 24, 6, 40, 60
	// The script and its sequential model are built up front, so every
	// processor agrees on them.
	type op struct{ addr, proc int }
	rng := rand.New(rand.NewSource(seed))
	script := make([][]op, rounds) // writes per round
	checks := make([][]op, rounds) // reads per round
	expected := make([][]int64, rounds)
	model := make([]int64, words)
	initial := func(addr int) int64 { return int64(-addr - 1) }
	if init {
		for addr := range model {
			model[addr] = initial(addr)
		}
	}
	// need[r][c*procs+w]: processor c reads a word w writes in round r.
	need := make([][]bool, rounds)
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(words)
		for w := 0; w < writes; w++ {
			script[r] = append(script[r], op{perm[w], rng.Intn(procs)})
		}
		for c := 0; c < reads; c++ {
			checks[r] = append(checks[r], op{rng.Intn(words), rng.Intn(procs)})
		}
		writer := map[int]int{}
		for _, o := range script[r] {
			model[o.addr] = int64(1000*r + o.addr)
			writer[o.addr] = o.proc
		}
		expected[r] = append([]int64(nil), model...)
		need[r] = make([]bool, procs*procs)
		for _, o := range checks[r] {
			if w, ok := writer[o.addr]; ok {
				need[r][o.proc*procs+w] = true
			}
		}
	}
	a := &Prog{Space: apps.Shape{SharedWords: words, Flags: 2 * rounds * procs}}
	a.Check = func(m apps.Memory) error {
		for addr, v := range model {
			if got := m.ReadShared(addr); got != v {
				return fmt.Errorf("seed %d: final memory [%d] = %d, want %d", seed, addr, got, v)
			}
		}
		return nil
	}
	a.Code = func(p apps.Proc) {
		me := p.ID()
		if init {
			p.BeginInit()
			if me == 0 {
				for addr := 0; addr < words; addr++ {
					p.Store(addr, initial(addr))
				}
			}
			p.EndInit()
		}
		// phase ends phase k of the program: a barrier, or flag k set
		// here and awaited from the processors wait picks.
		phase := func(k int, wait func(j int) bool) {
			if !flags {
				p.Barrier()
				return
			}
			p.SetFlag(k*procs + me)
			for j := 0; j < procs; j++ {
				if j != me && wait(j) {
					p.WaitFlag(k*procs + j)
				}
			}
		}
		for r := 0; r < rounds; r++ {
			for _, o := range script[r] {
				if o.proc == me {
					p.Store(o.addr, int64(1000*r+o.addr))
				}
			}
			phase(2*r, func(j int) bool { return need[r][me*procs+j] })
			for _, o := range checks[r] {
				if o.proc == me {
					a.want(p.Load(o.addr), expected[r][o.addr], "seed %d round %d: proc %d read [%d]", seed, r, me, o.addr)
				}
			}
			phase(2*r+1, func(int) bool { return true })
		}
	}
	return a
}

// Apps has a case per application of apps.Small, named as the paper
// names it. The engine runs a fresh small instance per process at
// 64-word pages, so the tiny problems still span many pages, and the
// application's Verify checks the result against its sequential
// reference.
var Apps = smallApps()

func smallApps() []Case {
	var cs []Case
	for i, app := range apps.Small() {
		mk := func() apps.App { return apps.Small()[i] }
		cs = append(cs, Case{app.Name(), func(t *testing.T, e Engine, nodes, ppn int) {
			if err := e(t, mk, nodes, ppn, 64); err != nil {
				t.Error(err)
			}
		}})
	}
	return cs
}
