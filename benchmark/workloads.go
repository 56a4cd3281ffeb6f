package main

import (
	"cashmere/internal/apps"
)

// repResult is one verified repetition.
type repResult struct {
	cost      usage
	dataMB    float64
	virtualMS float64            // simulator only
	layers    map[string]float64 // traced repetitions only
}

// runner is a workload with its inputs built.
type runner interface {
	// rep runs one repetition and verifies it against the sequential
	// reference; traced wraps the seams.
	rep(traced bool) (repResult, error)
	// probes runs the isolation probes of the layers this workload
	// exercises.
	probes(out map[string]float64) error
}

type workload struct {
	name string
	why  string // one line, for BENCHMARK.json; the README has the long form
	// procs is the GOMAXPROCS pin: results must not depend on how many
	// CPUs the host happens to have beyond the ones the workload uses.
	procs int
	build func(seed int64) runner
}

// The four workloads. Names are fixed; later issues cite them.
var workloads = []workload{
	{
		name:  "sim_fig7_32x4",
		why:   "simulator, 8 apps x {2L,1LD} at 32:4: core/vm/diff/directory/wnotice/simchan do all the work, mprun/tcpchan/wire none",
		procs: 1, // virtual time repeats only on one P, and Gauss loses a write ~1/20 runs at two (ROADMAP item 1)
		build: func(seed int64) runner { return newSimWorkload(apps.All(), seed) },
	},
	{
		name:  "mp_sor_shm",
		why:   "mprun SOR 2x1 over the shm mesh: read-mostly row kernels behind barriers, access path dominates, fabric nearly bypassed",
		procs: 2,
		build: func(seed int64) runner {
			return newMPWorkload(shm, func() apps.App {
				sor := apps.DefaultSOR()
				sor.Rows += int(seed % 4) // odd band splits and a shifted home parity, <0.6 % more work
				return sor
			})
		},
	},
	{
		name:  "mp_gauss_tcp",
		why:   "mprun Gauss 2x1 over tcp loopback: store-heavy rows plus flag-driven pivot fetches, so fabric, wire and handler work show",
		procs: 2,
		build: func(seed int64) runner {
			return newMPWorkload(tcp, func() apps.App {
				g := apps.DefaultGauss()
				g.N += int(seed % 2) // a different row width, so different false sharing, <1 % more work
				return g
			})
		},
	},
	{
		name:  "mp_migratory_tcp",
		why:   "benchmark-defined lock-migratory records 2x1 over tcp: rank-0 coordinator, flush fence, notices, small-frame latency; kernels none",
		procs: 2,
		build: func(seed int64) runner {
			return newMPWorkload(tcp, func() apps.App { return newMigratory(seed, mpNodes*mpPPN) })
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Every mp_* workload runs 2 nodes x 1 processor: the host has two
// CPUs, and Gauss fails verification at 2x2 over tcp on the seed.
const (
	mpNodes = 2
	mpPPN   = 1
)

// mpWorkload is an application on the multi-process runtime. Each rank
// keeps one application instance across repetitions, so the sequential
// reference is computed once, in the warm-up.
type mpWorkload struct {
	fab  fabric
	apps []apps.App // by rank
}

func newMPWorkload(fab fabric, newApp func() apps.App) *mpWorkload {
	w := &mpWorkload{fab: fab}
	for r := 0; r < mpNodes; r++ {
		w.apps = append(w.apps, newApp())
	}
	return w
}

func (w *mpWorkload) rep(traced bool) (repResult, error) {
	run, err := runMP(w.fab, mpNodes, mpPPN, func(r int) apps.App { return w.apps[r] }, traced)
	res := repResult{cost: run.cost, dataMB: float64(run.cost.sentBytes) / mb}
	if err != nil || !traced {
		return res, err
	}
	res.layers = make(map[string]float64)
	run.trace.layers(res.layers, run.cost, run.verify.wall)
	if w.fab == tcp {
		res.layers["tcpchan.connect_ms"] = float64(run.connect) / 1e6
	}
	return res, nil
}

func (w *mpWorkload) probes(out map[string]float64) error {
	if w.fab == tcp {
		return fabricProbes(tcp, "tcpchan", out)
	}
	if err := fabricProbes(shm, "shmchan", out); err != nil {
		return err
	}
	return mprunProbes(out)
}

func (w *simWorkload) probes(out map[string]float64) error { return coreProbes(out) }
