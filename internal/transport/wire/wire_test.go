package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// goldenFrames is the fixture set: one frame of every shape the
// protocol produces. Changing the byte layout of any of them without
// bumping Version fails TestGoldenFixtures.
func goldenFrames() []Frame {
	return []Frame{
		Hello(3),
		HelloAt(3, 1<<60|12345),
		{Type: TDiff, A: 17, B: 9001, Offs: []int32{0, 2, 100, 3}, Words: []int64{1, 2, 3, 4, 5}},
		{Type: TDiff, A: 17, B: 9003, C: 1, Offs: []int32{7, 1}, Words: []int64{-6}},
		{Type: TWriteNotice, A: 17, B: 9002, Pages: []int32{18, 19}},
		{Type: TWriteNotice, A: 17, B: 9004, Offs: []int32{5, 2, 40, 1}, Words: []int64{50, -51, 1 << 41}},
		{Type: TNoticeAck, A: 17, B: 9002},
		{Type: TPageReq, A: 44},
		{Type: TPageReq, A: 44, B: 1, C: 1<<32 | 5},
		{Type: TPageReq, A: 44, B: 3, C: 1<<32 | 6},
		{Type: TPageReply, A: 44, Words: []int64{-1, 0, 1, 1 << 62}},
		{Type: TPageReply, A: 44, B: 1, C: 1<<32 | 5, Offs: []int32{3, 2, 100, 1}, Words: []int64{7, -8, 1 << 40}},
		{Type: TFlushAck, A: 17, B: 9001},
		{Type: TBarArrive, A: 2, B: 7},
		{Type: TBarArrive, A: 3, B: 7, Pages: []int32{4, 9}, Offs: []int32{1, 0}},
		{Type: TBarRelease, A: 2},
		{Type: TBarRelease, A: 3, Pages: []int32{4}, Offs: []int32{1}},
		{Type: TLockReq, A: 1, B: 6},
		{Type: TLockGrant, A: 1, B: 6},
		{Type: TLockGrant, A: 1, B: 6, Pages: []int32{1, 5}, Offs: []int32{2, 1, 0, 1, 3, 2, 8, 2}, Words: []int64{10, 11, 12, 40, -41}},
		{Type: TLockRelease, A: 1, B: 6},
		{Type: TLockRelease, A: 1, B: 6, C: 4, Pages: []int32{1, 5}},
		{Type: TFlagSet, A: 12},
		{Type: TBye},
	}
}

// TestGoldenFixtures pins the exact encoded bytes of every frame shape
// against testdata/frames_v<Version>.hex. A diff means the wire layout changed:
// either revert, or bump Version and regenerate with -update.
func TestGoldenFixtures(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFrames() {
		enc := Append(nil, f)
		fmt.Fprintf(&b, "%-12s %s\n", f.Type, hex.EncodeToString(enc))
	}
	path := filepath.Join("testdata", fmt.Sprintf("frames_v%d.hex", Version))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with go test -run Golden -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("encoded bytes differ from %s — the wire layout changed without a Version bump\ngot:\n%swant:\n%s",
			path, got, want)
	}
}

// TestGoldenFixturesParse decodes the committed hex back and checks the
// decoder agrees with the encoder on every fixture.
func TestGoldenFixturesParse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("frames_v%d.hex", Version)))
	if err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(frames) {
		t.Fatalf("fixture has %d lines, want %d", len(lines), len(frames))
	}
	for i, line := range lines {
		raw, err := hex.DecodeString(strings.Fields(line)[1])
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		f, rest, err := Parse(raw)
		if err != nil {
			t.Fatalf("line %d (%v): %v", i, frames[i].Type, err)
		}
		if len(rest) != 0 {
			t.Fatalf("line %d: %d trailing bytes", i, len(rest))
		}
		if !Equal(f, frames[i]) {
			t.Errorf("line %d: decoded %+v, want %+v", i, f, frames[i])
		}
	}
}

func TestRoundTripAll(t *testing.T) {
	var stream bytes.Buffer
	for _, f := range goldenFrames() {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
		if got := EncodedLen(f); got != len(Append(nil, f)) {
			t.Errorf("%v: EncodedLen %d != encoded size %d", f.Type, got, len(Append(nil, f)))
		}
	}
	for _, want := range goldenFrames() {
		f, err := ReadFrame(&stream)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(f, want) {
			t.Errorf("round trip: got %+v, want %+v", f, want)
		}
	}
	if _, err := ReadFrame(&stream); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestCheckHello(t *testing.T) {
	rank, err := CheckHello(Hello(5))
	if err != nil || rank != 5 {
		t.Fatalf("CheckHello(Hello(5)) = (%d, %v), want (5, nil)", rank, err)
	}
	cases := []struct {
		name string
		f    Frame
		want string
	}{
		{"not hello", Frame{Type: TDiff, A: Magic, B: Version}, "expected hello"},
		{"bad magic", Frame{Type: THello, A: 0x12345678, B: Version}, "bad magic"},
		{"version ahead", Frame{Type: THello, A: Magic, B: Version + 1}, "version mismatch"},
		{"v1 peer", Frame{Type: THello, A: Magic, B: 1}, "version mismatch: peer speaks v1, this build speaks v5"},
		{"v2 peer", Frame{Type: THello, A: Magic, B: 2}, "version mismatch: peer speaks v2, this build speaks v5"},
		{"v3 peer", Frame{Type: THello, A: Magic, B: 3}, "version mismatch: peer speaks v3, this build speaks v5"},
		{"v4 peer", Frame{Type: THello, A: Magic, B: 4}, "version mismatch: peer speaks v4, this build speaks v5"},
		{"version zero", Frame{Type: THello, A: Magic, B: 0}, "version mismatch"},
	}
	for _, tc := range cases {
		if _, err := CheckHello(tc.f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestVersionMismatchOverStream checks the rejection end to end: a
// v(N+1) hello travels the stream intact and is refused by CheckHello,
// not by the frame decoder (the framing is version-independent).
func TestVersionMismatchOverStream(t *testing.T) {
	var stream bytes.Buffer
	future := Hello(2)
	future.B = Version + 1
	if err := WriteFrame(&stream, future); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&stream)
	if err != nil {
		t.Fatalf("framing must be version-independent, got %v", err)
	}
	if _, err := CheckHello(f); err == nil {
		t.Fatal("CheckHello accepted a future-version hello")
	}
}

func TestParseMalformed(t *testing.T) {
	valid := Append(nil, Hello(0))
	cases := []struct {
		name string
		b    []byte
		eof  bool // expect io.ErrUnexpectedEOF (need more bytes)
	}{
		{"empty", nil, true},
		{"short prefix", valid[:3], true},
		{"truncated body", valid[:len(valid)-1], true},
		{"oversize length", []byte{0xff, 0xff, 0xff, 0xff}, false},
		{"undersize length", []byte{1, 0, 0, 0, 0}, false},
		{"zero type", func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 0
			return b
		}(), false},
		{"count/length mismatch", func() []byte {
			b := append([]byte(nil), valid...)
			b[4+25] = 7 // claim 7 pages the payload does not carry (nPages is at body[25:])
			return b
		}(), false},
	}
	for _, tc := range cases {
		_, rest, err := Parse(tc.b)
		if err == nil {
			t.Errorf("%s: Parse accepted malformed input", tc.name)
			continue
		}
		if tc.eof != (err == io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want ErrUnexpectedEOF=%v", tc.name, err, tc.eof)
		}
		if len(rest) != len(tc.b) {
			t.Errorf("%s: rest consumed %d bytes on error", tc.name, len(tc.b)-len(rest))
		}
	}
}

func TestParseLeavesRemainder(t *testing.T) {
	b := Append(nil, Hello(1))
	b = Append(b, Frame{Type: TBye})
	f1, rest, err := Parse(b)
	if err != nil || f1.Type != THello {
		t.Fatalf("first frame: (%v, %v)", f1.Type, err)
	}
	f2, rest, err := Parse(rest)
	if err != nil || f2.Type != TBye || len(rest) != 0 {
		t.Fatalf("second frame: (%v, %v), %d left", f2.Type, err, len(rest))
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadFrame(bytes.NewReader(b[:])); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversize frame returned %v, want a limit error before allocating", err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := THello; ty <= TBye; ty++ {
		retired := ty == 5 || ty == 15
		if s := ty.String(); strings.HasPrefix(s, "Type(") != retired {
			t.Errorf("type %d stringifies as %q; retired: %v", ty, s, retired)
		}
	}
	if s := Type(0).String(); s != "Type(0)" {
		t.Errorf("reserved type 0 stringifies as %q", s)
	}
	if s := Type(200).String(); s != "Type(200)" {
		t.Errorf("unknown type stringifies as %q", s)
	}
}

// FuzzParse feeds arbitrary bytes to the decoder (it must never panic
// or over-read) and re-encodes whatever decodes cleanly, which must
// round-trip bit-identically.
func FuzzParse(f *testing.F) {
	for _, fr := range goldenFrames() {
		f.Add(Append(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, rest, err := Parse(b)
		if err != nil {
			if len(rest) != len(b) {
				t.Fatalf("Parse consumed %d bytes on error", len(b)-len(rest))
			}
			return
		}
		consumed := b[:len(b)-len(rest)]
		re := Append(nil, fr)
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", consumed, re)
		}
		back, rest2, err := Parse(re)
		if err != nil || len(rest2) != 0 || !Equal(back, fr) {
			t.Fatalf("re-parse: (%+v, %d, %v)", back, len(rest2), err)
		}
	})
}

// FuzzRoundTrip builds frames from fuzzed fields and checks
// encode→stream→decode identity.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(TDiff), int64(17), int64(9001), int64(0), []byte{0, 0, 0, 1}, 3)
	f.Add(uint8(TPageReply), int64(44), int64(0), int64(0), []byte{}, 1024)
	f.Add(uint8(TBye), int64(0), int64(0), int64(0), []byte{}, 0)
	// A barrier arrival reporting pages 4 and 9, a valid copy of 4, and
	// a release moving page 4 to rank 1: Pages and Offs interleave.
	f.Add(uint8(TBarArrive), int64(3), int64(7), int64(0), []byte{4, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, 0)
	f.Add(uint8(TBarRelease), int64(3), int64(0), int64(0), []byte{4, 0, 0, 0, 1, 0, 0, 0}, 0)
	// A request for the words the frame lacks, and a run reply: Offs
	// come from every other four bytes, so here they are (3, 2).
	f.Add(uint8(TPageReq), int64(44), int64(1), int64(1<<32|5), []byte{}, 0)
	f.Add(uint8(TPageReply), int64(44), int64(1), int64(1<<32|5), []byte{0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, 2)
	// A lock release listing pages 1 and 5, and a grant carrying page 1
	// with one run, (1, 2): Pages (1, 1), Offs (1, 1, 2).
	f.Add(uint8(TLockRelease), int64(1), int64(6), int64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0}, 0)
	f.Add(uint8(TLockGrant), int64(1), int64(6), int64(0), []byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, 2)
	// A request with both marks, and a push of one run, (5, 2): the
	// page-list bytes are zero, so Pages is (0, 0) and Offs (5, 2).
	f.Add(uint8(TPageReq), int64(44), int64(3), int64(1<<32|6), []byte{}, 0)
	f.Add(uint8(TWriteNotice), int64(17), int64(9004), int64(0), []byte{0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, 2)
	f.Fuzz(func(t *testing.T, ty uint8, a, bb, c int64, raw []byte, nWords int) {
		if ty == 0 {
			t.Skip("type 0 is reserved")
		}
		if nWords < 0 || nWords > 4096 || len(raw) > 4096 {
			t.Skip("outside the size envelope")
		}
		fr := Frame{Type: Type(ty), A: a, B: bb, C: c}
		for i := 0; i+3 < len(raw); i += 4 {
			v := int32(raw[i]) | int32(raw[i+1])<<8 | int32(raw[i+2])<<16 | int32(raw[i+3])<<24
			if i%8 == 0 {
				fr.Pages = append(fr.Pages, v)
			} else {
				fr.Offs = append(fr.Offs, v)
			}
		}
		for i := 0; i < nWords; i++ {
			fr.Words = append(fr.Words, int64(i)*0x9e3779b9)
		}
		var stream bytes.Buffer
		if err := WriteFrame(&stream, fr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&stream)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, fr) {
			t.Fatalf("round trip: got %+v, want %+v", got, fr)
		}
	})
}

// arena is the tests' recycling Allocator: it serves a frame's slices
// out of two arrays it keeps, over whatever earlier frames left in
// them, and counts the bytes it was asked for since the last reset.
type arena struct {
	i32        []int32
	i64        []int64
	at32, at64 int
	asked      int
}

func (a *arena) reset() { a.at32, a.at64, a.asked = 0, 0, 0 }

func (a *arena) Int32s(n int) []int32 {
	for len(a.i32) < a.at32+n {
		a.i32 = append(a.i32, -0x55555556)
	}
	a.at32 += n
	a.asked += 4 * n
	return a.i32[a.at32-n : a.at32 : a.at32]
}

func (a *arena) Int64s(n int) []int64 {
	for len(a.i64) < a.at64+n {
		a.i64 = append(a.i64, -0x5555555555555556)
	}
	a.at64 += n
	a.asked += 8 * n
	return a.i64[a.at64-n : a.at64 : a.at64]
}

// FuzzReader holds a Reader to the one-shot decoder over any byte
// stream: read a byte at a time through its kept buffer into dirty
// recycled slices, it returns the frames ReadFrame returns and then
// ReadFrame's error. It asks its Allocator for exactly the bytes of each
// frame's lists, which the frame's length-checked payload carried, and
// for nothing on behalf of a frame it rejects.
func FuzzReader(f *testing.F) {
	var stream []byte
	for _, fr := range goldenFrames() {
		f.Add(Append(nil, fr))
		stream = Append(stream, fr)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add(append(Append(nil, Frame{Type: TPageReply, A: 44, Words: make([]int64, 1024)}), stream...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		ref := bytes.NewReader(b)
		var a arena
		rd := NewReader(iotest.OneByteReader(bytes.NewReader(b)), &a)
		for i := 0; ; i++ {
			want, wantErr := ReadFrame(ref)
			a.reset()
			got, err := rd.Read()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("frame %d: Reader returned error %v, ReadFrame %v", i, err, wantErr)
			}
			if err != nil {
				if a.asked != 0 {
					t.Fatalf("frame %d: Reader took %d bytes from its allocator for a frame it rejected: %v", i, a.asked, err)
				}
				return
			}
			if !Equal(got, want) {
				t.Fatalf("frame %d: Reader decoded %+v, ReadFrame %+v", i, got, want)
			}
			if lists := EncodedLen(got) - EncodedLen(Frame{}); a.asked != lists {
				t.Fatalf("frame %d: Reader took %d bytes from its allocator for lists of %d", i, a.asked, lists)
			}
		}
	})
}

// benchFrames are the two sizes that matter: a full-page reply and a
// synchronization frame that is all header.
var benchFrames = []struct {
	name string
	f    Frame
}{
	{"page", Frame{Type: TPageReply, A: 44, C: 1<<32 | 7, Words: make([]int64, 1024)}},
	{"small", Frame{Type: TBarArrive, A: 2, B: 7}},
}

// BenchmarkAppend encodes into a buffer that is reused, as a
// connection's is.
func BenchmarkAppend(b *testing.B) {
	for _, tc := range benchFrames {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(EncodedLen(tc.f)))
			buf := Append(nil, tc.f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = Append(buf[:0], tc.f)
			}
		})
	}
}

// endless replays one encoded frame for ever.
type endless struct {
	enc []byte
	at  int
}

func (e *endless) Read(p []byte) (int, error) {
	n := copy(p, e.enc[e.at:])
	e.at = (e.at + n) % len(e.enc)
	return n, nil
}

// BenchmarkReaderRead decodes a stream through one Reader into recycled
// slices, as a connection's reader does.
func BenchmarkReaderRead(b *testing.B) {
	for _, tc := range benchFrames {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(EncodedLen(tc.f)))
			var a arena
			rd := NewReader(&endless{enc: Append(nil, tc.f)}, &a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.reset()
				if _, err := rd.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
