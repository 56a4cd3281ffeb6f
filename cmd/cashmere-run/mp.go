package main

// The -transport tcp launcher: one cashmere-run process per cluster
// node, connected by a loopback TCP mesh speaking the versioned
// transport/wire format, running the home-based multi-process protocol
// in internal/mprun.
//
// The parent re-executes its own binary once per rank with
// CASHMERE_MP_CHILD=rank:nodes in the environment and the original
// command line unchanged, so every child parses the same flags and
// picks the same application. Rendezvous is a two-line pipe protocol:
// each child binds 127.0.0.1:0 and prints
//
//	CASHMERE-MP-ADDR <host:port>
//
// on stdout; the parent collects all N addresses and writes
//
//	CASHMERE-MP-PEERS <addr0> <addr1> ... <addrN-1>
//
// to every child's stdin. The children then build the all-pairs mesh
// (tcpchan.Connect), run the application, and exit 0 on a verified
// result. Everything else a child writes is streamed through the
// parent: rank 0 verbatim, other ranks prefixed "[node R] ". Rank 0's
// summary ends with its wall time inside mprun.Run and the frames and
// megabytes it sent, counted at its endpoint.
//
// # Observability
//
// With a tracing flag (-trace, -trace-timeline, -profile) or -http set,
// each child also streams observability reports on the same pipe as
// single lines tagged
//
//	CASHMERE-MP-OBS <one-line JSON, metrics.MPReport>
//
// — periodic frame-counter snapshots every -mp-stats-interval, and one
// final report at run exit that additionally carries the rank's trace
// buffer, tracer epoch, and clock-offset estimates from the hello
// exchange. The parent keeps the latest report per rank: -http serves
// the aggregate on /metrics (cashmere_mp_* families) and per-rank
// progress on /status, and the tracing flags merge every rank's buffer
// into one clock-aligned trace.Recording (trace.Merge) and write it
// exactly as the simulator's is written. A missing final trace report
// from any rank fails the run rather than writing a partial timeline.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/cli"
	"cashmere/internal/costs"
	"cashmere/internal/metrics"
	"cashmere/internal/mprun"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/transport/tcpchan"
)

const (
	mpAddrTag  = "CASHMERE-MP-ADDR"
	mpPeersTag = "CASHMERE-MP-PEERS"
	mpObsTag   = "CASHMERE-MP-OBS"
)

// mpMaxLine bounds one line of child output. A final observability
// report carries a rank's whole trace buffer as JSON, far past
// bufio.Scanner's 64 KiB default.
const mpMaxLine = 256 << 20

// runMPChild is the child side of the tcp launcher: announce a
// listening address, receive the peer map, join the mesh, run the
// application, under a tracer when the parent will want its recording.
// Returns the process exit code.
func runMPChild(o cli.RunOptions, app apps.App, rank, nodes int, traced bool) int {
	if nodes != o.Nodes {
		fmt.Fprintf(os.Stderr, "cashmere-run: CASHMERE_MP_CHILD says %d nodes but flags say %d\n", nodes, o.Nodes)
		return 2
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run: node listen:", err)
		return 1
	}
	fmt.Printf("%s %s\n", mpAddrTag, lis.Addr())

	sc := bufio.NewScanner(os.Stdin)
	if !sc.Scan() {
		fmt.Fprintln(os.Stderr, "cashmere-run: parent closed stdin before sending the peer map")
		return 1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != nodes+1 || fields[0] != mpPeersTag {
		fmt.Fprintf(os.Stderr, "cashmere-run: bad peer-map line %q (want %q + %d addresses)\n", sc.Text(), mpPeersTag, nodes)
		return 1
	}
	ep, err := tcpchan.Connect(rank, fields[1:], lis)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cashmere-run: node %d mesh: %v\n", rank, err)
		return 1
	}
	defer ep.Close()

	// The child sees the parent's flags verbatim: a tracing flag enables
	// the rank-local tracer (the parent writes the merged files), and
	// that or -http makes the child report frame statistics. Rank 0
	// counts its frames regardless, for the summary's last line. The
	// child itself never binds -http — the parent serves the aggregate.
	var (
		tr    *trace.Tracer
		epoch int64
		stats *transport.FrameStats
	)
	if traced {
		epoch = time.Now().UnixNano()
		tr = trace.New(trace.Config{Procs: o.PPN + 1})
	}
	observed := traced || o.HTTP != ""
	if observed || rank == 0 {
		stats = transport.NewFrameStats(nodes)
		ep.SetStats(stats)
	}

	report := func(final bool) metrics.MPReport {
		rep := metrics.MPReport{Rank: rank, Nodes: nodes, PPN: o.PPN, App: app.Name(), Final: final}
		if observed {
			s := stats.Snapshot()
			rep.Frames = &s
		}
		if final && tr != nil {
			rep.EpochUnixNS = epoch
			rep.OffsetsNS = ep.ClockOffsets()
			rep.TraceEvents = tr.Events()
			rep.TraceDropped = tr.Dropped()
		}
		return rep
	}
	var outMu sync.Mutex // one report line per Write; never interleave
	emit := func(rep metrics.MPReport) {
		line, err := metrics.EncodeMPReport(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run: obs report:", err)
			return
		}
		outMu.Lock()
		fmt.Printf("%s %s\n", mpObsTag, line)
		outMu.Unlock()
	}
	stopObs := func() {}
	if observed && o.MPStatsInterval > 0 {
		stop := make(chan struct{})
		var obsWG sync.WaitGroup
		obsWG.Add(1)
		go func() {
			defer obsWG.Done()
			tick := time.NewTicker(o.MPStatsInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					emit(report(false))
				}
			}
		}()
		stopObs = func() { close(stop); obsWG.Wait() }
	}

	cfg := mprun.Config{Rank: rank, Nodes: nodes, PPN: o.PPN, Model: costs.Default(), Tracer: tr}
	start := time.Now()
	runErr := mprun.Run(app, cfg, ep)
	wall := time.Since(start)
	stopObs()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "cashmere-run: node %d: %v\n", rank, runErr)
		return 1
	}
	if observed {
		emit(report(true))
	}
	if rank == 0 {
		fmt.Printf("%s on %d:%d over tcp — %s\n", app.Name(), nodes*o.PPN, o.PPN, app.DataSet())
		fmt.Printf("verified against sequential reference: OK\n")
		fmt.Printf("%d OS processes over loopback, %d procs/node\n", nodes, o.PPN)
		var frames, bytes int64
		for _, fl := range stats.Snapshot().Sent {
			frames += fl.Frames
			bytes += fl.Bytes
		}
		fmt.Printf("rank 0: %.3f s in the runtime (verification included), %d frames and %.2f MB sent\n",
			wall.Seconds(), frames, float64(bytes)/(1<<20))
	}
	return 0
}

// obsCollector keeps the latest observability report per rank.
type obsCollector struct {
	mu     sync.Mutex
	latest []*metrics.MPReport
}

func newObsCollector(nodes int) *obsCollector {
	return &obsCollector{latest: make([]*metrics.MPReport, nodes)}
}

func (c *obsCollector) put(rep metrics.MPReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep.Rank >= 0 && rep.Rank < len(c.latest) {
		r := rep
		c.latest[rep.Rank] = &r
	}
}

// reports returns the latest report of every rank that has sent one.
func (c *obsCollector) reports() []metrics.MPReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []metrics.MPReport
	for _, r := range c.latest {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// runMPParent launches o.Nodes child processes, brokers the address
// exchange, relays their output, collects their observability reports,
// reaps them, and writes what the tracing flags ask for. Returns the
// process exit code.
func runMPParent(o cli.RunOptions, outs metrics.TraceOutputs) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run:", err)
		return 1
	}
	nodes := o.Nodes
	coll := newObsCollector(nodes)

	// Per-rank progress for /status, written as each child is reaped.
	var stMu sync.Mutex
	stStart := time.Now()
	ranks := make([]rankState, nodes)
	for i := range ranks {
		ranks[i].state = "running"
	}

	if o.HTTP != "" {
		reg := metrics.NewRegistry()
		reg.SetMPFunc(coll.reports)
		reg.SetStatusFunc(func() metrics.Status {
			stMu.Lock()
			defer stMu.Unlock()
			return mpStatus(stStart, time.Now(), ranks)
		})
		srv, err := reg.Start(o.HTTP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run: -http:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "cashmere-run: serving metrics on http://%s/\n", srv.Addr)
		defer srv.Close()
	}

	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		out   *bufio.Scanner
	}
	children := make([]*child, nodes)
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "cashmere-run: "+format+"\n", args...)
		for _, c := range children {
			if c != nil {
				c.cmd.Process.Kill()
				c.cmd.Wait()
			}
		}
		return 1
	}
	for r := 0; r < nodes; r++ {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), cli.MPChildEnv(r, nodes))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail("node %d stdin: %v", r, err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail("node %d stdout: %v", r, err)
		}
		if err := cmd.Start(); err != nil {
			return fail("node %d start: %v", r, err)
		}
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), mpMaxLine)
		children[r] = &child{cmd: cmd, stdin: stdin, out: sc}
	}

	// handle routes one line of child output: observability reports to
	// the collector, everything else to the relay.
	handle := func(r int, line string) {
		if body, ok := strings.CutPrefix(line, mpObsTag+" "); ok {
			rep, err := metrics.DecodeMPReport(body)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cashmere-run: node %d: %v\n", r, err)
				return
			}
			coll.put(rep)
			return
		}
		relay(r, line)
	}

	// Collect each child's announced address; route any other output it
	// produces before the announcement.
	addrs := make([]string, nodes)
	for r, c := range children {
		for {
			if !c.out.Scan() {
				return fail("node %d exited before announcing its address", r)
			}
			line := c.out.Text()
			if a, ok := strings.CutPrefix(line, mpAddrTag+" "); ok {
				addrs[r] = strings.TrimSpace(a)
				break
			}
			handle(r, line)
		}
	}
	peers := mpPeersTag + " " + strings.Join(addrs, " ") + "\n"
	for r, c := range children {
		if _, err := io.WriteString(c.stdin, peers); err != nil {
			return fail("node %d peer map: %v", r, err)
		}
		c.stdin.Close()
	}

	// Stream the rest of every child's output, and reap each child as
	// soon as its output ends (Wait closes the pipe, so it comes after
	// the last read).
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r, c := range children {
		wg.Add(1)
		go func(r int, c *child) {
			defer wg.Done()
			for c.out.Scan() {
				handle(r, c.out.Text())
			}
			if err := c.out.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "cashmere-run: node %d output: %v\n", r, err)
			}
			errs[r] = c.cmd.Wait()
			st := rankState{state: "done", end: time.Now()}
			if errs[r] != nil {
				st.state = "failed"
			}
			stMu.Lock()
			ranks[r] = st
			stMu.Unlock()
		}(r, c)
	}
	wg.Wait()
	code := 0
	for r, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "cashmere-run: node %d: %v\n", r, err)
			code = 1
		}
	}

	if outs.Wanted() {
		// Merge every rank's trace buffer onto rank 0's clock. A rank
		// that never delivered its final report (crash, dropped pipe)
		// fails the run rather than producing a partial timeline.
		tracks, err := metrics.MPTracks(coll.reports())
		var rec *trace.Recording
		if err == nil {
			rec, err = trace.Merge(tracks)
		}
		if err == nil {
			err = outs.Write(rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run: tracing:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

// rankState is one tcp rank's progress: "running" until the launcher
// reaps it, then "done" or "failed" as of end.
type rankState struct {
	state string
	end   time.Time
}

// mpStatus renders the ranks' progress at now for /status. A running
// rank's wall time is elapsed since start; a reaped rank's is final.
func mpStatus(start, now time.Time, ranks []rankState) metrics.Status {
	var s metrics.Status
	for r, rk := range ranks {
		end := rk.end
		switch rk.state {
		case "running":
			s.Running++
			end = now
		case "failed":
			s.Failed++
		default:
			s.Done++
		}
		s.Cells = append(s.Cells, metrics.CellStatus{
			Name: fmt.Sprintf("rank%d", r), State: rk.state, WallMS: end.Sub(start).Milliseconds(),
		})
	}
	return s
}

// relay forwards one line of child output: rank 0 owns the run's
// result summary and passes through verbatim; other ranks are tagged.
func relay(rank int, line string) {
	if rank == 0 {
		fmt.Println(line)
	} else {
		fmt.Printf("[node %d] %s\n", rank, line)
	}
}
