package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/transport/wire"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent under test spawns os.Executable() with -child, which lands
// here.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	probeDiv = 200
	os.Exit(m.Run())
}

// Test-only workloads, registered so a spawned child can find them.
func init() {
	workloads = append(workloads,
		workload{name: "test_verify_fails", procs: 2, build: func(int64) runner {
			return newMPWorkload(shm, func() apps.App { return &brokenApp{App: apps.SmallSOR(), verifyErr: true} })
		}},
		workload{name: "test_blocks", procs: 2, build: func(int64) runner {
			return newMPWorkload(shm, func() apps.App { return &brokenApp{App: apps.SmallSOR(), block: true} })
		}},
		workload{name: "test_blocks_later", procs: 2, build: func(int64) runner {
			return newMPWorkload(shm, func() apps.App { return &brokenApp{App: apps.SmallSOR(), blockAfter: 2} })
		}},
		workload{name: "test_small_sor", procs: 2, build: func(int64) runner {
			return newMPWorkload(shm, func() apps.App { return apps.SmallSOR() })
		}},
	)
}

// brokenApp is SOR with a Verify that errors or a Body that never
// returns, at once or after blockAfter good runs.
type brokenApp struct {
	apps.App
	verifyErr, block bool
	blockAfter       int
	runs             atomic.Int32
}

func (b *brokenApp) Body(p apps.Proc) {
	if b.block || b.blockAfter > 0 && int(b.runs.Add(1)) > b.blockAfter {
		select {}
	}
	b.App.Body(p)
}

func (b *brokenApp) Verify(c apps.Memory) error {
	if b.verifyErr {
		return errors.New("deliberately wrong")
	}
	return b.App.Verify(c)
}

func TestMigratoryVerifies(t *testing.T) {
	for _, shape := range []struct{ nodes, ppn int }{{2, 1}, {1, 2}} {
		for _, seed := range []int64{0, 7} {
			insts := make([]*migratory, shape.nodes)
			for r := range insts {
				insts[r] = newMigratory(seed, shape.nodes*shape.ppn)
				insts[r].K = 2000
			}
			if _, err := runMP(shm, shape.nodes, shape.ppn, func(r int) apps.App { return insts[r] }, false); err != nil {
				t.Errorf("%dx%d seed %d: %v", shape.nodes, shape.ppn, seed, err)
			}
		}
	}
}

// TestMigratoryVerifyCatchesLostUpdate checks Verify is not vacuous.
func TestMigratoryVerifyCatchesLostUpdate(t *testing.T) {
	m := newMigratory(0, 2)
	m.Shape()
	mem := fakeMemory{}
	for l := 0; l < m.Locks; l++ {
		for w := 0; w < m.Words; w++ {
			mem[m.record(l)+w] = int64(m.NProcs * m.K / m.Locks)
		}
	}
	if err := m.Verify(mem); err != nil {
		t.Fatalf("complete run rejected: %v", err)
	}
	mem[m.record(1)+3]--
	if err := m.Verify(mem); err == nil {
		t.Error("a torn record passed")
	}
	for w := 0; w < m.Words; w++ {
		mem[m.record(1)+w] = mem[m.record(1)] - 1
	}
	mem[m.record(1)+3] = mem[m.record(1)]
	if err := m.Verify(mem); err == nil {
		t.Error("a lost increment passed")
	}
}

type fakeMemory map[int]int64

func (f fakeMemory) ReadShared(addr int) int64    { return f[addr] }
func (f fakeMemory) ReadSharedF(addr int) float64 { return math.Float64frombits(uint64(f[addr])) }
func (fakeMemory) Model() costs.Model             { return costs.Default() }

// runParent runs the parent on one workload for one short round and
// returns its exit code and result.
func runParent(t *testing.T, name string, extra ...string) (int, *workloadResult) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	args := append([]string{"-workload", name, "-rounds", "1", "-reps", "2", "-seconds", "1", "-out", out}, extra...)
	var stdout bytes.Buffer
	code := run(args, &stdout, io.Discard)
	rs, err := readResults(out)
	if err != nil {
		t.Fatalf("reading the parent's result file: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  *string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last stdout line is not the JSON result: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Errorf("result line lacks a key: %s", lines[len(lines)-1])
	} else if *line.Correct != (code == 0) {
		t.Errorf("correct = %v but exit code %d", *line.Correct, code)
	}
	return code, rs.Workloads[0]
}

func TestVerifyFailureFailsTheRun(t *testing.T) {
	code, w := runParent(t, "test_verify_fails")
	if code == 0 || w.FailShare != 1 {
		t.Errorf("exit %d, fail_share %v (attempted %d, failed %d); want nonzero and 1", code, w.FailShare, w.Attempted, w.Failed)
	}
}

func TestDeadlineFailsTheRun(t *testing.T) {
	code, w := runParent(t, "test_blocks", "-deadline", "300ms")
	if code == 0 || w.FailShare != 1 {
		t.Errorf("exit %d, fail_share %v (attempted %d, failed %d); want nonzero and 1", code, w.FailShare, w.Attempted, w.Failed)
	}
	// The warm-up hung, so the two repetitions owed count too.
	if w.Attempted != 3 {
		t.Errorf("attempted %d, want the warm-up and the 2 repetitions owed", w.Attempted)
	}
}

// A hang after the warm-up and one good repetition: the hung one and
// the one still owed fail, the two that ran do not.
func TestDeadlineMidRoundCountsWhatIsOwed(t *testing.T) {
	code, w := runParent(t, "test_blocks_later", "-deadline", "300ms", "-reps", "3")
	if code == 0 || w.Attempted != 4 || w.Failed != 2 {
		t.Errorf("exit %d, attempted %d, failed %d; want nonzero, 4 and 2", code, w.Attempted, w.Failed)
	}
}

func TestHealthyRunPasses(t *testing.T) {
	code, w := runParent(t, "test_small_sor")
	if code != 0 || w.FailShare != 0 || w.Attempted != 3 {
		t.Fatalf("exit %d, fail_share %v, attempted %d, errors %v", code, w.FailShare, w.Attempted, w.Errors)
	}
	for _, d := range endToEnd {
		if m := w.EndToEnd[d.Name]; m.Value <= 0 || m.N == 0 {
			t.Errorf("%s = %v over %d samples, want a positive measurement", d.Name, m.Value, m.N)
		}
	}
}

// recordingProc is an apps.Proc that logs what reaches it and answers
// with recognisable values.
type recordingProc struct {
	apps.Proc // nil: the methods under test are all overridden
	log       []string
}

func (r *recordingProc) note(s string)    { r.log = append(r.log, s) }
func (r *recordingProc) Load(a int) int64 { r.note("Load"); return int64(a) * 3 }
func (r *recordingProc) Store(a int, v int64) {
	r.note("Store")
	r.log = append(r.log, string(rune('0'+v)))
}
func (r *recordingProc) LoadF(a int) float64     { r.note("LoadF"); return float64(a) / 2 }
func (r *recordingProc) StoreF(a int, v float64) { r.note("StoreF") }
func (r *recordingProc) LoadFRow(dst []float64, a int) {
	r.note("LoadFRow")
	for i := range dst {
		dst[i] = float64(a + i)
	}
}
func (r *recordingProc) StoreFRow(a int, src []float64) { r.note("StoreFRow") }
func (r *recordingProc) Lock(int)                       { r.note("Lock") }
func (r *recordingProc) Unlock(int)                     { r.note("Unlock") }
func (r *recordingProc) SetFlag(int)                    { r.note("SetFlag") }
func (r *recordingProc) WaitFlag(int)                   { r.note("WaitFlag") }
func (r *recordingProc) Barrier()                       { r.note("Barrier") }
func (r *recordingProc) BeginInit()                     { r.note("BeginInit") }
func (r *recordingProc) EndInit()                       { r.note("EndInit") }
func (r *recordingProc) Warmup(f func())                { r.note("Warmup"); f() }

// exercise drives every wrapped method of p once and returns what the
// loads gave back.
func exercise(p apps.Proc) []float64 {
	row := make([]float64, 3)
	got := []float64{float64(p.Load(5)), p.LoadF(9)}
	p.Store(1, 4)
	p.StoreF(2, 1.5)
	p.LoadFRow(row, 10)
	p.StoreFRow(20, row)
	p.Lock(0)
	p.Unlock(0)
	p.SetFlag(1)
	p.WaitFlag(1)
	p.Barrier()
	p.BeginInit()
	p.EndInit()
	p.Warmup(func() { got = append(got, float64(p.Load(7))) })
	return append(got, row...)
}

func TestProcWrappersPassThrough(t *testing.T) {
	plain := &recordingProc{}
	want := exercise(plain)

	tr := newMPTrace(1)
	under := &recordingProc{}
	tp := &tracedProc{Proc: under, msgr: tr.msgr[0], epoch: tr.epoch}
	if got := exercise(tp); !equalFloats(got, want) {
		t.Errorf("tracedProc returned %v, the bare processor %v", got, want)
	}
	if strings.Join(under.log, " ") != strings.Join(plain.log, " ") {
		t.Errorf("tracedProc forwarded %v, want %v", under.log, plain.log)
	}
	if tp.access.calls != 7 || tp.words != 11 {
		t.Errorf("tracedProc counted %d calls, %d words; want 7 and 11", tp.access.calls, tp.words)
	}
	for name, s := range map[string]span{"lock": tp.lock, "unlock": tp.unlock, "flagSet": tp.flagSet, "flagWait": tp.flagWt} {
		if s.calls != 1 || s.ns < 0 {
			t.Errorf("%s span = %+v, want one call and no negative time", name, s)
		}
	}
	if tp.barrier.calls != 4 || tp.barrier.ns < 0 {
		t.Errorf("barrier span = %+v, want 4 calls (Barrier, BeginInit, EndInit, Warmup)", tp.barrier)
	}

	under = &recordingProc{}
	cp := &countingProc{Proc: under}
	if got := exercise(cp); !equalFloats(got, want) {
		t.Errorf("countingProc returned %v, the bare processor %v", got, want)
	}
	if strings.Join(under.log, " ") != strings.Join(plain.log, " ") {
		t.Errorf("countingProc forwarded %v, want %v", under.log, plain.log)
	}
	if cp.calls != 7 || cp.words != 11 {
		t.Errorf("countingProc counted %d calls, %d words; want 7 and 11", cp.calls, cp.words)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTracedRunMatchesFrameStats runs SOR traced: Verify passing shows
// the wrappers hand every value through unchanged end to end, the
// messenger wrapper's own frame and byte counts must equal what
// FrameStats saw at the endpoints, and the self times must obey the
// span rule.
func TestTracedRunMatchesFrameStats(t *testing.T) {
	insts := []apps.App{apps.SmallSOR(), apps.SmallSOR()}
	run, err := runMP(shm, 2, 1, func(r int) apps.App { return insts[r] }, true)
	if err != nil {
		t.Fatal(err)
	}
	all := run.cost.add(run.verify)
	var frames, sends, bytes, handled int64
	for _, n := range all.frames {
		frames += n
	}
	for _, m := range run.trace.msgr {
		sends += m.sends.Load()
		bytes += m.sentBytes.Load()
		handled += m.handled.Load()
	}
	if sends != frames || bytes != all.sentBytes {
		t.Errorf("wrapper saw %d frames / %d bytes, FrameStats %d / %d", sends, bytes, frames, all.sentBytes)
	}
	if handled != sends {
		t.Errorf("%d frames handled of %d sent", handled, sends)
	}

	layers := make(map[string]float64)
	run.trace.layers(layers, run.cost, run.verify.wall)
	sum := 0.0
	for _, k := range []string{"apps.user_ms", "mprun.access_ms", "mprun.fetch_wait_ms", "mprun.lock_wait_ms", "mprun.unlock_ms",
		"mprun.barrier_ms", "mprun.flag_set_ms", "mprun.flag_wait_ms", "mprun.flush_wait_ms"} {
		if layers[k] < 0 {
			t.Errorf("%s = %v: a self time is negative", k, layers[k])
		}
		sum += layers[k]
	}
	if body := layers["mprun.body_ms"]; math.Abs(sum-body) > 1e-6*body {
		t.Errorf("processor-side terms add to %v ms, bodies ran %v ms", sum, body)
	}
	if layers["mprun.page_fetches"] == 0 || layers["mprun.flush_acks"] == 0 || layers["wire.encode_ms"] <= 0 {
		t.Errorf("a traced SOR run fetched %v pages, saw %v flush-acks, spent %v ms encoding", layers["mprun.page_fetches"], layers["mprun.flush_acks"], layers["wire.encode_ms"])
	}
}

func TestMessengerWrapperPassesFramesThrough(t *testing.T) {
	eps, err := newMesh(shm, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMesh(eps)
	tr := newMPTrace(2)
	got := make(chan wire.Frame, 1)
	tr.msgr[1].wrap(eps[1]).SetHandler(func(from int, f wire.Frame) { got <- f })
	eps[0].SetHandler(func(int, wire.Frame) {})
	sent := wire.Frame{Type: wire.TDiff, A: 3, B: 9, C: 1, Offs: []int32{4, 2}, Words: []int64{-1, 1 << 40}}
	if err := tr.msgr[0].wrap(eps[0]).Send(1, sent); err != nil {
		t.Fatal(err)
	}
	if f := <-got; !wire.Equal(f, sent) {
		t.Errorf("received %+v, sent %+v", f, sent)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) from CPython 3.11.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 7}, [3]float64{2, 7, 10}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		s := summarize(c.v)
		if got := [3]float64{s.Q1, s.Median, s.Q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
		if s.N != len(c.v) {
			t.Errorf("n = %d for %v", s.N, c.v)
		}
	}
	s := summarize([]float64{9, 10, 11, 10})
	if got, want := s.spread(), (10.75-9.25)/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summary of nothing = %+v", got)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}

func TestNearestRankQuantile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.01, 10}, {0, 10}} {
		if got := quantileSorted(s, c.q); got != c.want {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if quantileSorted(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(wall, q1, q3 float64, failed int) *resultSet {
		return &resultSet{Workloads: []*workloadResult{{
			Name: "w", Attempted: 10, Failed: failed, FailShare: float64(failed) / 10,
			EndToEnd: map[string]metricResult{"wall_s": {
				Unit: "s", Bound: 0.10, Value: wall,
				summary: summary{N: 10, Q1: q1, Median: wall, Q3: q3},
			}},
		}}}
	}
	base := set(1.00, 0.99, 1.01, 0)
	for _, c := range []struct {
		name    string
		b       *resultSet
		pass    bool
		verdict string
	}{
		{"within the bound", set(1.09, 1.08, 1.10, 0), true, "ok"},
		{"faster", set(0.50, 0.49, 0.51, 0), true, "ok"},
		{"past the bound", set(1.11, 1.10, 1.12, 0), false, "worse"},
		{"too noisy to tell", set(1.02, 0.90, 1.10, 0), true, "unresolved"},
		{"more failures", set(1.00, 0.99, 1.01, 1), false, "worse"},
		{"workload gone", &resultSet{}, false, "missing"},
	} {
		var out bytes.Buffer
		if pass := compare(base, c.b, &out); pass != c.pass || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: pass %v, want %v with %q in\n%s", c.name, pass, c.pass, c.verdict, out.String())
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// tables equal, and inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	registered := workloads
	workloads = workloads[:4] // without the test-only ones
	defer func() { workloads = registered }()
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, spec()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryEmittedMetricIsDeclared runs every source of per-layer
// numbers at test size and checks each name against the tables, and
// that together they cover the whole per-layer table.
func TestEveryEmittedMetricIsDeclared(t *testing.T) {
	// The engine loses writes under real parallelism (ROADMAP item 1);
	// the benchmark runs it on one P and so does this test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emitted := make(map[string]float64)
	sim := newSimWorkload(apps.Small(), 3)
	res, err := sim.rep(true)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.layers {
		emitted[k] = v
	}
	if err := sim.probes(emitted); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(2)
	for _, fab := range []fabric{shm, tcp} {
		mp := newMPWorkload(fab, func() apps.App { return apps.SmallGauss() })
		res, err := mp.rep(true)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range res.layers {
			emitted[k] = v
		}
		if err := mp.probes(emitted); err != nil {
			t.Fatal(err)
		}
	}
	// What aggregate adds on top of the repetitions' own numbers.
	w := aggregate("sim_fig7_32x4", []childReport{{
		Attempted: 2, Reps: []repRecord{{WallS: 1, VirtualMS: 5}}, Traced: []repRecord{{WallS: 2, VirtualMS: 5}},
	}}, setOptions{traced: true})
	for k, v := range w.PerLayer {
		emitted[k] = v
	}
	if w.PerLayer["trace.overhead_ratio"] != 2 || w.PerLayer["trace.virtual_ratio"] != 1 {
		t.Errorf("overhead ratio %v, virtual ratio %v; want 2 and 1", w.PerLayer["trace.overhead_ratio"], w.PerLayer["trace.virtual_ratio"])
	}

	declared := make(map[string]bool)
	for _, d := range perLayer {
		declared[d.Name] = true
		if _, ok := emitted[d.Name]; !ok {
			t.Errorf("%s is declared but nothing emits it", d.Name)
		}
	}
	for name, v := range emitted {
		if !metricName.MatchString(name) {
			t.Errorf("emitted metric name %q", name)
		}
		if !declared[name] {
			t.Errorf("%s is emitted but not declared in the per-layer table", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

// TestDriverLineCarriesEveryMetric checks the contract's last line in
// both modes.
func TestDriverLineCarriesEveryMetric(t *testing.T) {
	w := aggregate("mp_sor_shm", []childReport{{
		Attempted: 3, SetupS: 1, PeakRSSMB: 50,
		Reps:   []repRecord{{WallS: 1, CPUS: 1.2, DataMB: 140, AllocMB: 600}},
		Traced: []repRecord{{WallS: 1.3, Layers: map[string]float64{"mprun.access_ms": 7}}},
	}}, setOptions{traced: true})
	for _, traced := range []bool{false, true} {
		line, err := driverLine(w, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: %s missing or in unit %q", traced, d.Name, m.Unit)
			}
		}
		if !got.Correct || got.Attempted != 3 || got.Failed != 0 {
			t.Errorf("line says %+v", got)
		}
	}
	if line, _ := driverLine(w, true); !strings.Contains(string(line), `"mprun.access_ms":{"value":7,`) {
		t.Errorf("a traced value did not reach the line: %s", line)
	}
}
