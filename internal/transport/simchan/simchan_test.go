package simchan

import (
	"testing"
	"time"

	"cashmere/internal/costs"
)

func net8(t *testing.T) *Network {
	t.Helper()
	return New(8, costs.Default())
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, costs.Default())
}

func TestTransferUncontended(t *testing.T) {
	n := net8(t)
	m := n.Model()
	// One 8K page from an idle network: link bandwidth (29 MB/s) is the
	// bottleneck, so ~269us + 5.2us latency.
	done := n.Transfer(0, 8192, 0)
	want := costs.Occupancy(8192, m.MCLinkBandwidth) + m.MCWriteLatency
	if done != want {
		t.Errorf("Transfer = %d, want %d", done, want)
	}
}

func TestTransferContention(t *testing.T) {
	n := net8(t)
	m := n.Model()
	// Eight nodes each inject an 8K page at time zero. Each node's own
	// link is idle, but the shared hub (60 MB/s) must serialize them:
	// the last one completes no earlier than 8*8192 bytes over the hub.
	var last int64
	for src := 0; src < 8; src++ {
		if done := n.Transfer(src, 8192, 0); done > last {
			last = done
		}
	}
	// Allow a few ns of integer-division rounding per transfer.
	hubBound := costs.Occupancy(8*8192, m.MCAggregateBandwidth) + m.MCWriteLatency - 16
	if last < hubBound {
		t.Errorf("last transfer at %d, want >= hub bound %d", last, hubBound)
	}
	// And a single link never moved more than its own page, so no
	// transfer should cost more than ~8 pages over the hub plus slack.
	if last > 2*hubBound {
		t.Errorf("last transfer at %d, absurdly above hub bound %d", last, hubBound)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	n := net8(t)
	m := n.Model()
	// Two nodes inject a page each at the same instant. The transfers
	// overlap on the hub (which serializes them) but ride separate
	// links, so: each link's busy time is exactly one page's link
	// occupancy, and the hub's busy time is exactly two pages' hub
	// occupancy — contention shifts completion times, never the busy
	// accounting.
	n.Transfer(0, 8192, 0)
	n.Transfer(1, 8192, 0)
	linkOcc := costs.Occupancy(8192, m.MCLinkBandwidth)
	for _, src := range []int{0, 1} {
		if got := n.LinkBusyNS(src); got != linkOcc {
			t.Errorf("link %d busy = %d, want %d", src, got, linkOcc)
		}
	}
	if got := n.LinkBusyNS(2); got != 0 {
		t.Errorf("idle link busy = %d, want 0", got)
	}
	if got := n.LinkBusyNS(-1); got != 0 {
		t.Errorf("out-of-range link busy = %d, want 0", got)
	}
	hubOcc := 2 * costs.Occupancy(8192, m.MCAggregateBandwidth)
	hub, ok := n.HubBusyNS()
	if !ok {
		t.Fatal("serial fabric reported no hub")
	}
	if hub != hubOcc {
		t.Errorf("hub busy = %d, want %d", hub, hubOcc)
	}
}

func TestBusyTimeSwitchedFabricHasNoHub(t *testing.T) {
	m := costs.Default()
	m.MCFabric = costs.FabricSwitched
	n := New(4, m)
	n.Transfer(0, 8192, 0)
	if _, ok := n.HubBusyNS(); ok {
		t.Error("switched fabric reported a hub")
	}
	if got := n.LinkBusyNS(0); got != costs.Occupancy(8192, m.MCLinkBandwidth) {
		t.Errorf("switched-fabric link busy = %d", got)
	}
}

func TestTransferSameLinkSerializes(t *testing.T) {
	n := net8(t)
	m := n.Model()
	d1 := n.Transfer(3, 8192, 0)
	d2 := n.Transfer(3, 8192, 0)
	if d2 <= d1 {
		t.Errorf("second transfer on same link (%d) not after first (%d)", d2, d1)
	}
	// Allow a few ns of integer-division rounding per transfer.
	linkBound := costs.Occupancy(2*8192, m.MCLinkBandwidth) + m.MCWriteLatency - 16
	if d2 < linkBound {
		t.Errorf("two pages on one 29MB/s link done at %d, want >= %d", d2, linkBound)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	n := net8(t)
	if done := n.Transfer(0, 0, 100); done != 100+n.Model().MCWriteLatency {
		t.Errorf("zero-byte transfer = %d", done)
	}
}

func TestTransferInvalidNode(t *testing.T) {
	n := net8(t)
	defer func() {
		if recover() == nil {
			t.Error("Transfer from invalid node did not panic")
		}
	}()
	n.Transfer(8, 100, 0)
}

func TestWordBytesMatchesLatencyScale(t *testing.T) {
	// Sanity: an 8K page at 29MB/s should take roughly 270us, i.e.
	// vastly more than the 5.2us word latency — the reason the paper's
	// protocols fight to reduce data volume.
	m := costs.Default()
	page := costs.Occupancy(8192, m.MCLinkBandwidth)
	if page < 50*m.MCWriteLatency {
		t.Errorf("page occupancy %v should dwarf word latency %v",
			time.Duration(page), time.Duration(m.MCWriteLatency))
	}
}

func TestSwitchedFabricSkipsHubContention(t *testing.T) {
	// Three nodes inject a bulk transfer at the same instant. Under the
	// paper's serial fabric the shared ~60 MB/s hub gates the third
	// transfer (3 x 29 MB/s links > aggregate); under a switched
	// crossbar each transfer pays only its own link occupancy, so every
	// transfer completes at the single-link time.
	const nbytes = 1 << 20
	serial := New(4, costs.Default())
	alone := serial.Transfer(0, nbytes, 0)

	swModel := costs.Default()
	swModel.MCFabric = costs.FabricSwitched
	switched := New(4, swModel)

	var serialMax, switchedMax int64
	for src := 1; src <= 3; src++ {
		if done := serial.Transfer(src, nbytes, 1000); done > serialMax {
			serialMax = done
		}
		if done := switched.Transfer(src, nbytes, 1000); done > switchedMax {
			switchedMax = done
		}
	}
	if switchedMax != 1000+alone {
		t.Errorf("switched transfers gated beyond link occupancy: max %d, want %d",
			switchedMax, 1000+alone)
	}
	if serialMax <= switchedMax {
		t.Errorf("serial hub imposed no extra contention: serial %d, switched %d",
			serialMax, switchedMax)
	}
}

func TestSwitchedFabricStillChargesLink(t *testing.T) {
	m := costs.Default()
	m.MCFabric = costs.FabricSwitched
	n := New(2, m)
	// Two back-to-back transfers from one node serialize on its link.
	first := n.Transfer(0, 1<<20, 0)
	second := n.Transfer(0, 1<<20, 0)
	if second <= first {
		t.Errorf("same-source transfers did not serialize on the link: %d then %d", first, second)
	}
}
