// Package wire defines the versioned, length-prefixed frame format the
// socket transport (transport/tcpchan) speaks: diffs, write notices,
// page fetches, and synchronization traffic, each a self-delimiting
// frame that can be written onto any ordered byte stream. The
// in-process shm mesh queues the same Frame structs, their slices
// copied into ones the receiver recycles, so the multi-process runtime
// (internal/mprun) is agnostic to which carries them.
//
// # Frame layout
//
// Every frame is
//
//	u32  payload length (little-endian; excludes these four bytes)
//	u8   frame type
//	i64  A, B, C        (three scalar arguments, meaning per type)
//	u32  nPages         (length of the page-number list)
//	u32  nOffs          (length of the offset/run list)
//	u32  nWords         (length of the 64-bit payload)
//	i32  pages[nPages]
//	i32  offs[nOffs]
//	i64  words[nWords]
//
// all little-endian. The scalar fields carry page numbers, lock ids,
// barrier generations, and ack tokens; the three arrays carry page
// lists (a barrier's placement reports and moves, a lock release's or
// grant's pages), diff run headers (paired start/count offsets) or one
// entry per listed page, and bulk word payloads. A frame whose declared lengths disagree
// with its payload length is rejected, as is any frame longer than
// MaxFrameBytes — a stream decoder can never be driven into an
// unbounded allocation by a corrupt or hostile peer.
//
// # Encoding and decoding
//
// Append encodes onto a byte slice the caller owns, and a Reader decodes
// a stream frame after frame through one byte buffer it keeps, taking
// the frames' payload slices from the caller's Allocator: that pair is
// what a transport runs on, and with a reused buffer on one side and a
// recycling Allocator on the other a frame costs no allocation.
// WriteFrame, ReadFrame and Parse are the one-shot forms — a fresh
// buffer and fresh slices every call — for a connection's hello
// exchange, fixtures and tests.
//
// # Versioning
//
// The first frame on every connection must be a Hello carrying the
// magic number and format version (and the sender's rank in C). A
// decoder checks the pair with CheckHello before trusting anything
// else on the stream; bumping Version is the mechanism for breaking
// format changes, and the golden fixtures under testdata pin the byte
// layout so an accidental change fails loudly in tests.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Magic identifies a Cashmere wire stream ("CSHM" little-endian).
const Magic = 0x4d485343

// Version is the current wire-format version. Bump on any change to
// the frame layout or to the meaning of an existing frame type.
const Version = 5

// MaxFrameBytes bounds a single frame's payload. The largest
// legitimate frame is a full page reply (8 Kbyte page = 1024 words)
// plus headers; the bound leaves room for larger configured pages
// while keeping a corrupt length field from allocating gigabytes.
const MaxFrameBytes = 1 << 22

// Type identifies a frame's meaning.
type Type uint8

// The frame types of wire-format version 5. Version 2 gave TBarArrive
// and TBarRelease their page lists; version 3 gave TPageReq its delta
// mark and TPageReply its run form; version 4 sends the lock frames to
// and from the lock's home rather than rank 0, gave TLockRelease its
// page list and TLockGrant its runs; version 5 gave TPageReq its keep
// mark and TWriteNotice its runs (a push). The layout and the other
// types are version 1's. Types 5 and 15, a directory update and a region write,
// were never sent and are retired; their numbers stay unused.
const (
	// THello opens a connection: A=Magic, B=Version, C=sender rank.
	THello Type = iota + 1
	// TDiff carries released modifications to a page's home:
	// A=page, B=ack token, C=1 when the sender gave its copy of the
	// page up with this diff and is to be struck from the sharer
	// set, 0 when it keeps the copy, Offs=paired (start,count) runs,
	// Words=the runs' values concatenated.
	TDiff
	// TWriteNotice tells a sharer that a release changed a page:
	// A=page, B=ack token (echoed in TNoticeAck). A plain notice
	// (Offs and Words empty) invalidates the sharer's copy. A push
	// carries the master's words the sharer's copy may lack:
	// Offs=paired (start,count) runs, Words=the runs' values
	// concatenated, which the sharer merges into its copy or, when it
	// cannot, drops and takes the frame as a plain notice. Pages is
	// empty, and the receiver refuses a notice that carries any;
	// batching notices into one frame belongs to a later version of the
	// format.
	TWriteNotice
	// TNoticeAck acknowledges a write notice: A=page, B=token.
	TNoticeAck
	_ // 5, retired
	// TPageReq requests a page copy from its home: A=page, B=two marks
	// ORed, C=request id. Mark 1 (delta): the requester's frame holds
	// everything the home's last reply to it carried, so a reply may
	// carry only the words it lacks; without it the requester needs the
	// whole page. Mark 2 (keep): the requester keeps its copy across
	// releases, so the home may push to it rather than invalidate it.
	TPageReq
	// TPageReply answers, echoing the request id in C, in one of two
	// forms. B=0: A=page, Words=the full page. B=1 (only to a request
	// with the delta mark): A=page, Offs=paired (start,count) runs, Words=the runs'
	// values concatenated — the master's words the requester's frame
	// may lack, every other word being one it already holds.
	TPageReply
	// TFlushAck acknowledges a TDiff after every affected sharer has
	// been invalidated: A=page, B=token.
	TFlushAck
	// TBarArrive announces barrier arrival to the coordinator:
	// A=generation, B=arriving global processor id. The node's last
	// local arrival also reports its first-touch writes: Pages=the
	// pages the node wrote since the last barrier and never reported
	// before, Offs=one entry per page, 1 if the node still holds a
	// valid copy of it, 0 if not. Other arrivals carry neither.
	TBarArrive
	// TBarRelease releases a barrier generation: A=generation,
	// Pages=the pages whose home moves at this barrier, Offs=one entry
	// per page, its new home's rank. Both are empty when nothing moves.
	TBarRelease
	// TLockReq requests an application lock from its home rank: A=lock
	// id, B=requesting global processor id.
	TLockReq
	// TLockGrant grants it, from the lock's home: A=lock id, B=grantee
	// global processor id. It may carry the words of some of the lock's
	// pages that the grantee's frames lack: Pages=those pages, ascending,
	// Offs=one entry per page, its run count, then every page's paired
	// (start,count) runs in page order, Words=the runs' values
	// concatenated. All three are empty when it carries none.
	TLockGrant
	// TLockRelease returns it to its home: A=lock id, B=releasing global
	// processor id, C=the last barrier generation the releaser has left,
	// Pages=the pages the release published that are homed on the lock's
	// home.
	TLockRelease
	// TFlagSet raises a set-once application flag: A=flag id.
	TFlagSet
	_ // 15, retired
	// TBye ends the session; a node that has received TBye may shut
	// down once its peers' streams drain.
	TBye
)

// String returns the type's wire name.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TDiff:
		return "diff"
	case TWriteNotice:
		return "write-notice"
	case TNoticeAck:
		return "notice-ack"
	case TPageReq:
		return "page-req"
	case TPageReply:
		return "page-reply"
	case TFlushAck:
		return "flush-ack"
	case TBarArrive:
		return "bar-arrive"
	case TBarRelease:
		return "bar-release"
	case TLockReq:
		return "lock-req"
	case TLockGrant:
		return "lock-grant"
	case TLockRelease:
		return "lock-release"
	case TFlagSet:
		return "flag-set"
	case TBye:
		return "bye"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Frame is one decoded message. The zero value is invalid (Type 0 is
// reserved so an accidentally-zeroed frame cannot masquerade as
// traffic).
type Frame struct {
	Type    Type
	A, B, C int64
	Pages   []int32
	Offs    []int32
	Words   []int64
}

// Hello returns the connection-opening frame for the given rank.
func Hello(rank int) Frame {
	return Frame{Type: THello, A: Magic, B: Version, C: int64(rank)}
}

// HelloAt returns the connection-opening frame for the given rank,
// carrying the sender's wall clock (unix nanoseconds) as the first
// payload word. Receivers estimate per-peer clock offsets from it
// (tcpchan.ClockOffsets); CheckHello ignores the payload, so a peer
// sending a plain Hello simply provides no estimate. The frame layout
// is unchanged — Words was always legal on any type — so this needs no
// version bump.
func HelloAt(rank int, clockNS int64) Frame {
	f := Hello(rank)
	f.Words = []int64{clockNS}
	return f
}

// HelloClock extracts the sender's clock stamp from a hello frame. ok
// is false when the hello carries none (a plain Hello).
func HelloClock(f Frame) (clockNS int64, ok bool) {
	if f.Type != THello || len(f.Words) == 0 {
		return 0, false
	}
	return f.Words[0], true
}

// CheckHello validates a connection's first frame and returns the
// sender's rank. It rejects non-Hello frames, a wrong magic number,
// and a version mismatch — each with an error naming what was seen.
func CheckHello(f Frame) (rank int, err error) {
	if f.Type != THello {
		return 0, fmt.Errorf("wire: expected hello, got %v frame", f.Type)
	}
	if f.A != Magic {
		return 0, fmt.Errorf("wire: bad magic %#x (want %#x): not a cashmere stream", f.A, Magic)
	}
	if f.B != Version {
		return 0, fmt.Errorf("wire: version mismatch: peer speaks v%d, this build speaks v%d", f.B, Version)
	}
	return int(f.C), nil
}

// fixedHeader is the encoded size of the per-frame fields after the
// length prefix: type byte, three i64 scalars, three u32 counts.
const fixedHeader = 1 + 3*8 + 3*4

// EncodedLen returns the total encoded size of f, including the
// four-byte length prefix.
func EncodedLen(f Frame) int {
	return 4 + fixedHeader + 4*len(f.Pages) + 4*len(f.Offs) + 8*len(f.Words)
}

// Append encodes f onto dst and returns the extended slice.
func Append(dst []byte, f Frame) []byte {
	payload := fixedHeader + 4*len(f.Pages) + 4*len(f.Offs) + 8*len(f.Words)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, byte(f.Type))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.A))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.B))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.C))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Pages)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Offs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Words)))
	for _, p := range f.Pages {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	for _, o := range f.Offs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o))
	}
	for _, w := range f.Words {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w))
	}
	return dst
}

// Allocator supplies the payload slices of decoded frames. The decoder
// asks for exactly the lengths a frame declares, never zero, and only
// after checking them against the frame's payload length, which
// MaxFrameBytes bounds; it overwrites every element of what it is given,
// so a recycled slice need not be cleared.
type Allocator interface {
	Int32s(n int) []int32
	Int64s(n int) []int64
}

// heap is the Allocator of the one-shot decoders: fresh slices.
type heap struct{}

func (heap) Int32s(n int) []int32 { return make([]int32, n) }
func (heap) Int64s(n int) []int64 { return make([]int64, n) }

// Parse decodes one frame from the front of b and returns it together
// with the unconsumed remainder. It returns io.ErrUnexpectedEOF when b
// holds a syntactically-valid prefix of a frame (read more and retry)
// and a descriptive error for anything malformed.
func Parse(b []byte) (f Frame, rest []byte, err error) {
	return parse(b, heap{})
}

// parse is Parse with the frame's slices taken from a.
func parse(b []byte, a Allocator) (f Frame, rest []byte, err error) {
	if len(b) < 4 {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	payload := int(binary.LittleEndian.Uint32(b))
	if payload > MaxFrameBytes {
		return Frame{}, b, fmt.Errorf("wire: frame length %d exceeds limit %d", payload, MaxFrameBytes)
	}
	if payload < fixedHeader {
		return Frame{}, b, fmt.Errorf("wire: frame length %d shorter than header %d", payload, fixedHeader)
	}
	if len(b) < 4+payload {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	body := b[4 : 4+payload]
	rest = b[4+payload:]

	f.Type = Type(body[0])
	if f.Type == 0 {
		return Frame{}, b, fmt.Errorf("wire: zero frame type")
	}
	f.A = int64(binary.LittleEndian.Uint64(body[1:]))
	f.B = int64(binary.LittleEndian.Uint64(body[9:]))
	f.C = int64(binary.LittleEndian.Uint64(body[17:]))
	nPages := int(binary.LittleEndian.Uint32(body[25:]))
	nOffs := int(binary.LittleEndian.Uint32(body[29:]))
	nWords := int(binary.LittleEndian.Uint32(body[33:]))
	want := fixedHeader + 4*nPages + 4*nOffs + 8*nWords
	if want != payload || nPages < 0 || nOffs < 0 || nWords < 0 {
		return Frame{}, b, fmt.Errorf("wire: %v frame declares %d pages/%d offs/%d words but carries %d payload bytes",
			f.Type, nPages, nOffs, nWords, payload)
	}
	at := fixedHeader
	if nPages > 0 {
		f.Pages = a.Int32s(nPages)
		for i := range f.Pages {
			f.Pages[i] = int32(binary.LittleEndian.Uint32(body[at:]))
			at += 4
		}
	}
	if nOffs > 0 {
		f.Offs = a.Int32s(nOffs)
		for i := range f.Offs {
			f.Offs[i] = int32(binary.LittleEndian.Uint32(body[at:]))
			at += 4
		}
	}
	if nWords > 0 {
		f.Words = a.Int64s(nWords)
		for i := range f.Words {
			f.Words[i] = int64(binary.LittleEndian.Uint64(body[at:]))
			at += 8
		}
	}
	return f, rest, nil
}

// WriteFrame encodes f onto w.
func WriteFrame(w io.Writer, f Frame) error {
	buf := Append(make([]byte, 0, EncodedLen(f)), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame decodes one frame from r, which must deliver a byte stream
// produced by WriteFrame/Append. It returns io.EOF only at a clean
// frame boundary.
func ReadFrame(r io.Reader) (Frame, error) {
	return NewReader(r, heap{}).Read()
}

// Reader decodes the frames of one byte stream. It reads each frame
// into a byte buffer it keeps from frame to frame — the buffer grows to
// the largest frame the stream has carried, MaxFrameBytes at most — and
// takes the frame's slices from its Allocator, so what a decoded frame
// costs is the Allocator's to decide.
type Reader struct {
	r   io.Reader
	a   Allocator
	buf []byte
}

// NewReader returns a Reader decoding r, which must deliver a byte
// stream produced by WriteFrame/Append, into slices from a. Read issues
// two reads per frame, header and body, so r wants to be buffered.
func NewReader(r io.Reader, a Allocator) *Reader {
	return &Reader{r: r, a: a}
}

// Read decodes the stream's next frame. It returns io.EOF only at a
// clean frame boundary.
func (rd *Reader) Read() (Frame, error) {
	rd.buf = slices.Grow(rd.buf[:0], 4)[:4]
	if _, err := io.ReadFull(rd.r, rd.buf); err != nil {
		return Frame{}, err
	}
	payload := int(binary.LittleEndian.Uint32(rd.buf))
	if payload > MaxFrameBytes {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds limit %d", payload, MaxFrameBytes)
	}
	rd.buf = slices.Grow(rd.buf, payload)[:4+payload]
	if _, err := io.ReadFull(rd.r, rd.buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := parse(rd.buf, rd.a)
	return f, err
}

// Equal reports whether two frames are identical, treating nil and
// empty slices as equal (Parse never allocates empty non-nil slices,
// but hand-built frames may hold them).
func Equal(a, b Frame) bool {
	if a.Type != b.Type || a.A != b.A || a.B != b.B || a.C != b.C {
		return false
	}
	if len(a.Pages) != len(b.Pages) || len(a.Offs) != len(b.Offs) || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			return false
		}
	}
	for i := range a.Offs {
		if a.Offs[i] != b.Offs[i] {
			return false
		}
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}
