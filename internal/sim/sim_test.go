package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Advance(50)
	if c.Now() != 150 {
		t.Errorf("Now = %d, want 150", c.Now())
	}
	c.Advance(-30)
	if c.Now() != 150 {
		t.Errorf("negative Advance moved the clock: %d", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(100)
	if w := c.AdvanceTo(250); w != 150 {
		t.Errorf("wait = %d, want 150", w)
	}
	if c.Now() != 250 {
		t.Errorf("Now = %d, want 250", c.Now())
	}
	if w := c.AdvanceTo(200); w != 0 {
		t.Errorf("past AdvanceTo waited %d, want 0", w)
	}
	if c.Now() != 250 {
		t.Errorf("past AdvanceTo moved clock back: %d", c.Now())
	}
}

func TestBusSerialOccupancy(t *testing.T) {
	b := NewBus(1 << 20) // 1 MB/s: 1 byte = ~954ns
	end1 := b.Use(0, 1<<20)
	if end1 != int64(time.Second) {
		t.Errorf("first transfer ends at %d, want 1s", end1)
	}
	// Second transfer requested at time 0 must queue behind the first.
	end2 := b.Use(0, 1<<20)
	if end2 != 2*int64(time.Second) {
		t.Errorf("queued transfer ends at %d, want 2s", end2)
	}
	// A transfer requested after the bus is free starts immediately.
	end3 := b.Use(5*int64(time.Second), 1<<20)
	if end3 != 6*int64(time.Second) {
		t.Errorf("late transfer ends at %d, want 6s", end3)
	}
	if b.FreeAt() != end3 {
		t.Errorf("FreeAt = %d, want %d", b.FreeAt(), end3)
	}
}

func TestBusZeroBandwidth(t *testing.T) {
	b := NewBus(0)
	if end := b.Use(42, 1000); end != 42 {
		t.Errorf("zero-bandwidth bus delayed transfer: %d", end)
	}
	var nilBus *Bus
	if end := nilBus.Use(42, 1000); end != 42 {
		t.Errorf("nil bus delayed transfer: %d", end)
	}
	if nilBus.FreeAt() != 0 {
		t.Errorf("nil bus FreeAt = %d", nilBus.FreeAt())
	}
}

func TestBusQueueCap(t *testing.T) {
	// A request from a processor whose clock lags far behind a prior
	// reservation waits at most maxQueueFactor occupancies.
	b := NewBus(1 << 20)
	occ := int64(1000) * int64(time.Second) / (1 << 20)
	b.Use(int64(time.Hour), 1000) // a reservation far in the future
	end := b.Use(0, 1000)
	if end > (maxQueueFactor+1)*occ {
		t.Errorf("lagging transfer completed at %d, want <= %d", end, (maxQueueFactor+1)*occ)
	}

	// Many requests at one instant queue up to the cap and no further.
	b = NewBus(1 << 20)
	for i := 0; i < 4*maxQueueFactor; i++ {
		if end := b.Use(0, 1000); end > (maxQueueFactor+1)*occ {
			t.Fatalf("request %d completed at %d, above the cap %d", i, end, (maxQueueFactor+1)*occ)
		}
	}
	if got := b.FreeAt(); got < maxQueueFactor*occ {
		t.Errorf("FreeAt = %d, queue never built up to the cap %d", got, maxQueueFactor*occ)
	}
}

func TestBusBusyAccounting(t *testing.T) {
	b := NewBus(1 << 20) // 1 MB/s
	occ := int64(time.Second)
	// Two transfers requested at the same instant contend: the second
	// queues behind the first, yet busy time is the exact sum of the
	// two occupancies — the bus is serially occupied, so overlapping
	// requests never double-count.
	b.Use(0, 1<<20)
	end2 := b.Use(0, 1<<20)
	if end2 != 2*occ {
		t.Fatalf("queued transfer ends at %d, want %d", end2, 2*occ)
	}
	if got := b.BusyNS(); got != 2*occ {
		t.Errorf("BusyNS after two contended transfers = %d, want %d", got, 2*occ)
	}
	// A later idle-bus transfer adds exactly its own occupancy: idle
	// gaps are not busy time.
	b.Use(10*occ, 1<<20)
	if got := b.BusyNS(); got != 3*occ {
		t.Errorf("BusyNS after idle-gap transfer = %d, want %d", got, 3*occ)
	}
	var nilBus *Bus
	if nilBus.BusyNS() != 0 {
		t.Errorf("nil bus BusyNS = %d", nilBus.BusyNS())
	}
	zero := NewBus(0)
	zero.Use(0, 1000)
	if zero.BusyNS() != 0 {
		t.Errorf("zero-bandwidth bus accumulated busy time: %d", zero.BusyNS())
	}
}

func TestStall(t *testing.T) {
	// One sharer moving 1000 bytes in 1us on a 1GB/s bus: occupancy
	// ~1us, no stall.
	if got := Stall(1000, 1000, 1, 1<<30); got != 0 {
		t.Errorf("uncontended stall = %d", got)
	}
	// Four sharers at the same rate need 4x the bus: stall ~3x ns.
	ns := int64(1000)
	got := Stall(ns, 1000, 4, 1<<30)
	occ4 := int64(4000) * int64(time.Second) / (1 << 30)
	if got != occ4-ns {
		t.Errorf("4-sharer stall = %d, want %d", got, occ4-ns)
	}
	// Degenerate inputs.
	if Stall(0, 100, 4, 1<<30) != 0 || Stall(100, 0, 4, 1<<30) != 0 || Stall(100, 100, 4, 0) != 0 {
		t.Error("degenerate Stall inputs must yield 0")
	}
	if Stall(10, 1<<20, 0, 1<<20) <= 0 {
		t.Error("zero sharers clamps to one, still stalls when saturated")
	}
}

func TestVLockOverlapSemantics(t *testing.T) {
	var l VLock
	// First acquire: never held, no wait.
	if held := l.Acquire(100, 10); held != 110 {
		t.Errorf("first acquire held at %d, want 110", held)
	}
	l.Release(500)
	// Overlapping arrival (after the CS began, before it ended): waits.
	if held := l.Acquire(200, 10); held != 510 {
		t.Errorf("overlapping acquire held at %d, want 510", held)
	}
	l.Release(600)
	// Arrival after the previous release: no wait.
	if held := l.Acquire(700, 10); held != 710 {
		t.Errorf("late acquire held at %d, want 710", held)
	}
	l.Release(720)
	// Virtually-early arrival (before the previous CS began): the host
	// scheduler granted out of virtual order; the caller is not dragged
	// into the future.
	if held := l.Acquire(50, 10); held != 60 {
		t.Errorf("virtually-early acquire held at %d, want 60", held)
	}
	l.Release(65)
}

func TestVLockMutualExclusion(t *testing.T) {
	// The exclusion VLock promises is in virtual time: an acquirer that
	// arrives while the previous critical section is virtually active
	// (at or after its grant, before its release) is granted no earlier
	// than that release plus its own cost. Any other arrival is granted
	// at its own time plus cost.
	var l VLock
	rng := rand.New(rand.NewSource(1))
	var heldAt, released int64
	for i := 0; i < 2000; i++ {
		now := rng.Int63n(1 << 20)
		cost := rng.Int63n(100)
		held := l.Acquire(now, cost)
		want := now + cost
		if now >= heldAt && released > now {
			want = released + cost
		}
		if held != want {
			t.Fatalf("acquire %d at %d (previous section %d..%d): held at %d, want %d",
				i, now, heldAt, released, held, want)
		}
		heldAt = held
		end := held + rng.Int63n(1000)
		l.Release(end)
		released = max(released, end)
	}
}

func TestClockProperties(t *testing.T) {
	f := func(steps []int16) bool {
		var c Clock
		prev := int64(0)
		for _, s := range steps {
			c.Advance(int64(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
