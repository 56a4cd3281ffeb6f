package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// A workload runs in a child process of its own: its peak RSS, its
// allocation counters and its GOMAXPROCS pin are then the workload's
// alone, and a hang costs one child, not the run.

// childOptions is what the parent asks of one child.
type childOptions struct {
	Workload string
	Seed     int64
	// Seconds is the timed budget: repetitions start until it is spent.
	// Reps, when positive, caps their number.
	Seconds float64
	Reps    int
	// Traced alternates untraced and traced repetitions and then runs
	// the isolation probes.
	Traced bool
	// Deadline bounds one repetition.
	Deadline time.Duration
	// Spawned is when the parent started the child (Unix ns); setup_s
	// runs from there to the first timed repetition.
	Spawned int64
	// SpeedAtSpawn is the host speed the parent measured just before
	// starting the child; when set, the parent serves further
	// measurements on the pipe pair it passed as descriptors 3 and 4
	// (see reference.go). Zero (a child started by hand): every second
	// counts as measured.
	SpeedAtSpawn float64
}

// repRecord is one timed repetition as the child reports it. WallS and
// CPUS are on the nominal host: the measured seconds times Speed, the
// mean of the host speeds measured just before and just after.
type repRecord struct {
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	WallRawS  float64            `json:"wall_raw_s"`
	Speed     float64            `json:"speed"`
	DataMB    float64            `json:"data_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	VirtualMS float64            `json:"virtual_ms,omitempty"`
	GCCycles  float64            `json:"gc_cycles"`
	GCPauseMS float64            `json:"gc_pause_ms"`
	Mallocs   float64            `json:"mallocs"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func record(r repResult, speed float64) repRecord {
	return repRecord{
		WallS:     r.cost.wall.Seconds() * speed,
		CPUS:      r.cost.cpu.Seconds() * speed,
		WallRawS:  r.cost.wall.Seconds(),
		Speed:     speed,
		DataMB:    r.dataMB,
		AllocMB:   float64(r.cost.alloc) / mb,
		VirtualMS: r.virtualMS,
		GCCycles:  float64(r.cost.gcCycles),
		GCPauseMS: float64(r.cost.gcPause) / 1e6,
		Mallocs:   float64(r.cost.mallocs),
		Layers:    r.layers,
	}
}

// childReport is the one JSON object a child prints.
type childReport struct {
	SetupS    float64            `json:"setup_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Hung      bool               `json:"hung,omitempty"` // a repetition passed the deadline
	Errors    []string           `json:"errors,omitempty"`
	Reps      []repRecord        `json:"reps"`             // untraced
	Traced    []repRecord        `json:"traced,omitempty"` // traced
	Probes    map[string]float64 `json:"probes,omitempty"`
}

// runChild runs one workload in this process and writes its report. It
// returns an error only when it could not run at all; failed
// repetitions are in the report.
func runChild(o childOptions, w *workload, out io.Writer) error {
	runtime.GOMAXPROCS(w.procs)
	r := w.build(o.Seed)
	rep := &childReport{Reps: []repRecord{}}

	// attempt runs one repetition under the deadline. A repetition that
	// hangs cannot be cancelled from outside the product code, so a
	// timeout ends the child: the report goes out and the process exits
	// with the goroutines still parked.
	hung := false
	attempt := func(traced bool) (repResult, bool) {
		type outcome struct {
			res repResult
			err error
		}
		done := make(chan outcome, 1) // the repetition never blocks on a reader that gave up
		go func() {
			res, err := r.rep(traced)
			done <- outcome{res, err}
		}()
		rep.Attempted++
		select {
		case oc := <-done:
			if oc.err != nil {
				rep.Failed++
				rep.Errors = append(rep.Errors, oc.err.Error())
			}
			return oc.res, oc.err == nil
		case <-time.After(o.Deadline):
			hung = true
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("repetition exceeded the %v deadline", o.Deadline))
			return repResult{}, false
		}
	}

	// speed asks the parent for a host-speed measurement.
	speed := func() float64 { return 1 }
	if o.SpeedAtSpawn == 0 {
		o.SpeedAtSpawn = 1
	} else {
		req, resp := os.NewFile(3, "speed-request"), os.NewFile(4, "speed-reply")
		defer req.Close()
		defer resp.Close()
		speed = func() float64 {
			var v float64
			if _, err := req.Write([]byte{0}); err == nil {
				err = binary.Read(resp, binary.LittleEndian, &v)
				if err == nil && v > 0 {
					return v
				}
			}
			return 1 // the parent is gone; the report will go nowhere either
		}
	}

	// The untimed warm-up: first mesh, page-cache and allocator growth,
	// and the applications' sequential references.
	attempt(false)
	setup := time.Since(time.Unix(0, o.Spawned)).Seconds()
	before := speed()
	rep.SetupS = setup * (o.SpeedAtSpawn + before) / 2

	start := time.Now()
	least := 1 // a traced run needs one repetition of each kind
	if o.Traced {
		least = 2
	}
	timed := 0
	for ; !hung && (o.Reps == 0 || timed < o.Reps); timed++ {
		if timed >= least && time.Since(start).Seconds() >= o.Seconds {
			break
		}
		traced := o.Traced && timed%2 == 1
		res, ok := attempt(traced)
		if hung {
			continue // ends the loop with this repetition counted
		}
		after := speed()
		around := (before + after) / 2
		before = after
		if !ok {
			continue
		}
		if traced {
			rep.Traced = append(rep.Traced, record(res, around))
		} else {
			rep.Reps = append(rep.Reps, record(res, around))
		}
	}
	if hung && o.Reps > timed {
		// The repetitions this child still owed count as failed.
		rep.Attempted += o.Reps - timed
		rep.Failed += o.Reps - timed
	}
	if o.Traced && !hung {
		rep.Probes = make(map[string]float64)
		if err := r.probes(rep.Probes); err != nil {
			rep.Attempted++
			rep.Failed++
			rep.Errors = append(rep.Errors, "probes: "+err.Error())
		}
	}
	rep.Hung = hung
	rep.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(out).Encode(rep)
}
