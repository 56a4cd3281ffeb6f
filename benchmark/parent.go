package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setOptions describes one set of runs: some workloads, a number of
// rounds, and how long each workload measures in total.
type setOptions struct {
	names    []string
	rounds   int
	seconds  float64 // per workload, split evenly over the rounds
	reps     int     // cap on timed repetitions per round, 0 for none
	traced   bool
	seed     int64
	deadline time.Duration
	log      io.Writer // progress lines
}

// metricResult is one end-to-end metric of one workload: the reported
// value, the median, and the summary of the samples behind it.
type metricResult struct {
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	Value float64 `json:"value"`
	summary
}

type workloadResult struct {
	Name       string                  `json:"name"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	FailShare  float64                 `json:"fail_share"`
	Errors     []string                `json:"errors,omitempty"`
	EndToEnd   map[string]metricResult `json:"end_to_end"`
	// HostSpeed is the reference's verdict on the host while the
	// workload ran (1 = nominal) and WallRawS the unscaled seconds;
	// wall_s and cpu_s above are scaled by the speed.
	HostSpeed summary            `json:"host_speed"`
	WallRawS  summary            `json:"wall_raw_s"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// stamp says where and how a result set was measured.
type stamp struct {
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Kernel  string  `json:"kernel"`
	Commit  string  `json:"commit"`
	Seed    int64   `json:"seed"`
	Rounds  int     `json:"rounds"`
	Seconds float64 `json:"seconds_per_workload"`
	Traced  bool    `json:"traced"`
	Date    string  `json:"date"`
}

type resultSet struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []*workloadResult `json:"workloads"`
}

func (rs *resultSet) failed() bool {
	for _, w := range rs.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			return true
		}
	}
	return false
}

// missing lists what a healthy result set must have and this one lacks:
// a positive value for every end-to-end metric of every workload and,
// when the set is a traced run of all the workloads, every per-layer
// metric from at least one of them.
func (rs *resultSet) missing() []string {
	var out []string
	emitted := make(map[string]bool)
	for _, w := range rs.Workloads {
		for name, m := range w.EndToEnd {
			if m.N == 0 || m.Value <= 0 {
				out = append(out, w.Name+": "+name)
			}
		}
		for name := range w.PerLayer {
			emitted[name] = true
		}
	}
	if rs.Stamp.Traced && len(rs.Workloads) >= len(workloads) {
		for _, d := range perLayer {
			if !emitted[d.Name] {
				out = append(out, d.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func newStamp(o setOptions) stamp {
	st := stamp{
		NProc: runtime.NumCPU(), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		Seed: o.seed, Rounds: o.rounds, Seconds: o.seconds, Traced: o.traced,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	// Best effort: the driver's checkout is not a git repository.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(b))
	}
	return st
}

// runSet runs the rounds. Rounds interleave the workloads rather than
// running one workload's repetitions back to back: the host drifts over
// minutes (the same binary went 2.47 s -> 2.95 s on Gauss/tcp), and
// interleaving spreads a drift over every workload instead of handing
// it to one.
func runSet(o setOptions) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ref := newReference()
	reports := make(map[string][]childReport)
	dead := make(map[string]bool) // a workload that hung runs no further rounds
	for round := 0; round < o.rounds; round++ {
		for _, name := range o.names {
			if dead[name] {
				continue
			}
			co := childOptions{
				Workload: name, Seed: o.seed, Seconds: o.seconds / float64(o.rounds),
				Reps: o.reps, Traced: o.traced, Deadline: o.deadline,
			}
			rep := spawn(self, co, ref)
			if rep.Hung || len(rep.Reps) == 0 {
				dead[name] = true
			}
			reports[name] = append(reports[name], rep)
			fmt.Fprintf(o.log, "round %d/%d %-17s %2d repetitions, %d failed, setup %.2fs\n",
				round+1, o.rounds, name, rep.Attempted, rep.Failed, rep.SetupS)
		}
	}
	rs := &resultSet{Stamp: newStamp(o)}
	for _, name := range o.names {
		rs.Workloads = append(rs.Workloads, aggregate(name, reports[name], o))
	}
	return rs, nil
}

// spawn runs one child to completion, serving it host-speed
// measurements on a pipe pair while it runs, and returns its report; a
// child that dies, is killed, or prints no report counts as one failed
// repetition.
func spawn(self string, co childOptions, ref *reference) childReport {
	lost := func(err error) childReport {
		return childReport{Attempted: 1, Failed: 1, Errors: []string{fmt.Sprintf("%s child: %v", co.Workload, err)}}
	}
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return lost(err)
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return lost(err)
	}
	defer respW.Close()

	// Warm-up plus the budget plus one hung repetition, with slack for
	// the probes: past that the child is killed.
	limit := time.Duration(co.Seconds*float64(time.Second)) + 2*co.Deadline + 30*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	co.SpeedAtSpawn = ref.speed()
	co.Spawned = time.Now().UnixNano()
	arg, err := json.Marshal(co)
	if err != nil {
		reqW.Close()
		respR.Close()
		return lost(err)
	}
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{reqW, respR} // the child's descriptors 3 and 4
	err = cmd.Start()
	// The child holds its own copies now; ours must go, or the server
	// below would never see the request pipe end.
	reqW.Close()
	respR.Close()
	if err != nil {
		return lost(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		one := make([]byte, 1)
		for {
			if _, err := reqR.Read(one); err != nil {
				return // the child has exited
			}
			if err := binary.Write(respW, binary.LittleEndian, ref.speed()); err != nil {
				return
			}
		}
	}()
	err = cmd.Wait()
	<-served
	if err != nil {
		return lost(err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return lost(fmt.Errorf("report: %w", err))
	}
	return rep
}

// aggregate folds a workload's child reports, one per round, into its
// result.
func aggregate(name string, reports []childReport, o setOptions) *workloadResult {
	w := &workloadResult{Name: name, GOMAXPROCS: workloadByName(name).procs, EndToEnd: make(map[string]metricResult)}
	var reps, traced []repRecord
	var setup, rss []float64
	probes := make(map[string]float64)
	for _, r := range reports {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Errors = append(w.Errors, r.Errors...)
		reps = append(reps, r.Reps...)
		traced = append(traced, r.Traced...)
		if len(r.Reps) > 0 {
			setup = append(setup, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
		}
		for k, v := range r.Probes {
			probes[k] = v
		}
	}
	if w.Attempted > 0 {
		w.FailShare = float64(w.Failed) / float64(w.Attempted)
	}
	col := func(from []repRecord, f func(repRecord) float64) []float64 {
		v := make([]float64, len(from))
		for i, r := range from {
			v[i] = f(r)
		}
		return v
	}
	samples := map[string][]float64{
		"wall_s":      col(reps, func(r repRecord) float64 { return r.WallS }),
		"cpu_s":       col(reps, func(r repRecord) float64 { return r.CPUS }),
		"data_mb":     col(reps, func(r repRecord) float64 { return r.DataMB }),
		"alloc_mb":    col(reps, func(r repRecord) float64 { return r.AllocMB }),
		"virtual_ms":  col(reps, func(r repRecord) float64 { return r.VirtualMS }),
		"peak_rss_mb": rss,
		"setup_s":     setup,
	}
	defs := endToEnd
	if name == "sim_fig7_32x4" {
		defs = append(append([]metricDef(nil), defs...), virtualMS)
	}
	for _, d := range defs {
		s := summarize(samples[d.Name])
		w.EndToEnd[d.Name] = metricResult{Unit: d.Unit, Bound: d.Bound, Value: s.Median, summary: s}
	}
	w.HostSpeed = summarize(col(reps, func(r repRecord) float64 { return r.Speed }))
	w.WallRawS = summarize(col(reps, func(r repRecord) float64 { return r.WallRawS }))
	if !o.traced {
		return w
	}

	// Per-layer: the median over the traced repetitions of each number,
	// the probes, and the cross-cutting figures from the untraced
	// repetitions that alternated with the traced ones.
	w.PerLayer = probes
	byKey := make(map[string][]float64)
	for _, r := range traced {
		for k, v := range r.Layers {
			byKey[k] = append(byKey[k], v)
		}
	}
	for k, v := range byKey {
		w.PerLayer[k] = median(v)
	}
	w.PerLayer["host.speed"] = w.HostSpeed.Median
	w.PerLayer["host.wall_raw_s"] = w.WallRawS.Median
	w.PerLayer["host.gc_cycles"] = median(col(reps, func(r repRecord) float64 { return r.GCCycles }))
	w.PerLayer["host.gc_pause_ms"] = median(col(reps, func(r repRecord) float64 { return r.GCPauseMS }))
	w.PerLayer["host.mallocs"] = median(col(reps, func(r repRecord) float64 { return r.Mallocs }))
	w.PerLayer["trace.overhead_ratio"] = ratio(
		median(col(traced, func(r repRecord) float64 { return r.WallS })), median(samples["wall_s"]))
	w.PerLayer["virtual_ms"] = median(samples["virtual_ms"])
	w.PerLayer["trace.virtual_ratio"] = ratio(
		median(col(traced, func(r repRecord) float64 { return r.VirtualMS })), median(samples["virtual_ms"]))
	return w
}

// print writes every metric by name with its unit and, end to end, its
// regression bound.
func (rs *resultSet) print(out io.Writer) {
	for _, w := range rs.Workloads {
		fmt.Fprintf(out, "\n%s  (GOMAXPROCS %d): %d repetitions attempted, %d failed, fail_share %.3f\n",
			w.Name, w.GOMAXPROCS, w.Attempted, w.Failed, w.FailShare)
		for _, e := range w.Errors {
			fmt.Fprintf(out, "  error: %s\n", e)
		}
		fmt.Fprintf(out, "  %-12s %-4s %10s  %3s %10s %10s %10s %10s %10s %7s %6s\n",
			"end to end", "unit", "value", "n", "min", "q1", "median", "q3", "max", "spread", "bound")
		names := make([]string, 0, len(w.EndToEnd))
		for name := range w.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := w.EndToEnd[name]
			fmt.Fprintf(out, "  %-12s %-4s %10.4f  %3d %10.4f %10.4f %10.4f %10.4f %10.4f %6.1f%% %5.0f%%\n",
				name, m.Unit, m.Value, m.N, m.Min, m.Q1, m.Median, m.Q3, m.Max, 100*m.spread(), 100*m.Bound)
		}
		fmt.Fprintf(out, "  host speed %.3f (q1 %.3f, q3 %.3f) of nominal; wall_s before scaling %.4f s\n",
			w.HostSpeed.Median, w.HostSpeed.Q1, w.HostSpeed.Q3, w.WallRawS.Median)
		if w.PerLayer == nil {
			continue
		}
		fmt.Fprintf(out, "  per layer\n")
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// driverLine is the one-line result the builder's contract asks for:
// with tracing off every end-to-end metric, with tracing on every
// per-layer metric (0 where the layer is not on the workload's path).
func driverLine(w *workloadResult, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{w.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{w.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0 && w.Attempted > 0, max(w.Attempted, 1), w.Failed, metrics})
}
