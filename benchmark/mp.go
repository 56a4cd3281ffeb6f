package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/mprun"
	"cashmere/internal/transport"
	"cashmere/internal/transport/shmchan"
	"cashmere/internal/transport/tcpchan"
)

// statsEndpoint is what both in-process fabrics' endpoints offer beyond
// transport.Messenger: the FrameStats attachment seam.
type statsEndpoint interface {
	transport.Messenger
	SetStats(*transport.FrameStats)
}

// fabric names an in-process messenger mesh backend.
type fabric string

const (
	shm fabric = "shm"
	tcp fabric = "tcp"
)

// newMesh builds a fresh n-endpoint mesh. A mesh serves one mprun.Run
// per endpoint (SetHandler may be called once), so every repetition
// builds its own; the build is outside wall_s and is what
// tcpchan.connect_ms reports.
func newMesh(fab fabric, n int) ([]statsEndpoint, error) {
	eps := make([]statsEndpoint, n)
	if fab == shm {
		mesh := shmchan.NewMesh(n)
		for i := range eps {
			eps[i] = mesh.Endpoint(i)
		}
		return eps, nil
	}
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lis[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("listening for rank %d: %w", i, err)
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	// Connect dials the lower ranks and accepts the higher ones, so the
	// ranks must connect concurrently.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := tcpchan.Connect(i, addrs, lis[i])
			if err != nil {
				errs[i] = err
				return
			}
			eps[i] = ep
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeMesh(eps)
			return nil, err
		}
	}
	return eps, nil
}

func closeMesh(eps []statsEndpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// mpRun is one multi-process-runtime repetition's measurements.
type mpRun struct {
	cost    usage         // the repetition minus the time inside App.Verify
	connect time.Duration // mesh construction (listeners + hello exchange)
	verify  usage         // the time inside App.Verify
	trace   *mpTrace      // nil on an untraced repetition
}

// runMP executes one verified repetition of an application over a fresh
// nodes x ppn mesh, all ranks in this process. newApp(rank) returns
// the rank's application instance (ranks cannot share one: Shape and
// the reference cache are per instance). With traced set the
// application and the messengers are wrapped by the seam tracers.
func runMP(fab fabric, nodes, ppn int, newApp func(rank int) apps.App, traced bool) (mpRun, error) {
	var out mpRun
	t0 := time.Now()
	eps, err := newMesh(fab, nodes)
	if err != nil {
		return out, err
	}
	defer closeMesh(eps)
	out.connect = time.Since(t0)

	fstats := make([]*transport.FrameStats, nodes)
	msgs := make([]transport.Messenger, nodes)
	var tr *mpTrace
	if traced {
		tr = newMPTrace(nodes)
	}
	for r, ep := range eps {
		fstats[r] = transport.NewFrameStats(nodes)
		ep.SetStats(fstats[r])
		msgs[r] = ep
		if traced {
			msgs[r] = tr.msgr[r].wrap(ep)
		}
	}
	probe := &meter{stats: fstats}

	// Rank 0 verifies inside mprun.Run; the wrapper meters that call so
	// it can be subtracted (LU's reference run is 70 % of apps.Run).
	var verify usage
	appsByRank := make([]apps.App, nodes)
	for r := range appsByRank {
		a := newApp(r)
		if traced {
			a = &tracedApp{App: a, tr: tr, rank: r}
		}
		if r == 0 {
			a = &verifyMetered{App: a, probe: probe, cost: &verify, quiet: tr}
		}
		appsByRank[r] = a
	}

	errs := make([]error, nodes)
	var wg sync.WaitGroup
	start := probe.read()
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := mprun.Config{Rank: r, Nodes: nodes, PPN: ppn, Model: costs.Default()}
			errs[r] = mprun.Run(appsByRank[r], cfg, msgs[r])
		}(r)
	}
	wg.Wait()
	out.cost = probe.read().sub(start).sub(verify)
	out.verify = verify
	// Closing joins the dispatchers, so the handler-side counters are
	// final (and safely readable) from here on.
	closeMesh(eps)
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	out.trace = tr
	return out, nil
}

// verifyMetered times the one Verify call mprun.Run makes on rank 0.
type verifyMetered struct {
	apps.App
	probe *meter
	cost  *usage
	quiet *mpTrace // told to stop sampling while Verify fetches pages
}

func (v *verifyMetered) Verify(c apps.Memory) error {
	if v.quiet != nil {
		v.quiet.verifying.Store(true)
	}
	start := v.probe.read()
	err := v.App.Verify(c)
	*v.cost = v.probe.read().sub(start)
	return err
}
