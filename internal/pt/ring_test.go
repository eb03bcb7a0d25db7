package pt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refRing is the reference model of Ring: a buffer of the full
// capacity allocated up front and written one byte at a time.
type refRing struct {
	buf     []byte
	written uint64
}

func (r *refRing) Write(p []byte) {
	for _, b := range p {
		r.buf[r.written%uint64(len(r.buf))] = b
		r.written++
	}
}

func (r *refRing) Bytes() ([]byte, uint64) {
	c := uint64(len(r.buf))
	if r.written <= c {
		return append([]byte(nil), r.buf[:r.written]...), 0
	}
	start := r.written % c
	return append(append([]byte(nil), r.buf[start:]...), r.buf[:start]...), r.written - c
}

// checkRing compares every observable of got against the model.
func checkRing(t *testing.T, step string, got *Ring, want *refRing) {
	t.Helper()
	gd, gl := got.Bytes()
	wd, wl := want.Bytes()
	if !bytes.Equal(gd, wd) || gl != wl {
		t.Fatalf("%s: Bytes = %d bytes lost %d, want %d bytes lost %d", step, len(gd), gl, len(wd), wl)
	}
	if got.Written() != want.written {
		t.Fatalf("%s: Written = %d, want %d", step, got.Written(), want.written)
	}
	if got.Cap() != len(want.buf) {
		t.Fatalf("%s: Cap = %d, want %d", step, got.Cap(), len(want.buf))
	}
	if len(got.buf) > got.Cap() || cap(got.buf) > got.Cap() {
		t.Fatalf("%s: backing buffer %d/%d exceeds capacity %d", step, len(got.buf), cap(got.buf), got.Cap())
	}
}

// TestRingDifferential drives the grow-on-demand ring and the
// fixed-buffer model through the same random writes — short and long,
// exactly filling the capacity, wrapping, and Reset after a wrap — and
// requires identical Bytes, lost counts, Written and Cap throughout.
func TestRingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	capacities := []int{1, 2, 7, 64, 1000, minRingAlloc - 1, minRingAlloc, minRingAlloc + 1, 3 * minRingAlloc}
	for i := 0; i < 12; i++ {
		capacities = append(capacities, 1+rng.Intn(5*minRingAlloc))
	}
	for _, c := range capacities {
		got, want := NewRing(c), &refRing{buf: make([]byte, c)}
		checkRing(t, "empty", got, want)
		for op := 0; op < 60; op++ {
			var n int
			switch rng.Intn(6) {
			case 0:
				n = c - int(want.written%uint64(c)) // land exactly on the capacity boundary
			case 1:
				n = c // one full capacity at once
			case 2:
				n = c + 1 + rng.Intn(2*c) // more than the capacity in one write
			case 3:
				got.Reset()
				want.written = 0
				checkRing(t, "reset", got, want)
				continue
			default:
				n = rng.Intn(1 + c/3)
			}
			p := make([]byte, n)
			rng.Read(p)
			got.Write(p)
			want.Write(p)
			checkRing(t, "write", got, want)
		}
	}
}

// TestRingGrowsWithTrace pins the memory contract: capacity is a wrap
// bound, so a short trace in a default-capacity ring holds kilobytes,
// and Reset keeps the grown buffer instead of reallocating.
func TestRingGrowsWithTrace(t *testing.T) {
	r := NewRing(DefaultRingSize)
	if cap(r.buf) != 0 {
		t.Fatalf("new ring allocated %d bytes before any write", cap(r.buf))
	}
	r.Write(make([]byte, 10_000))
	if c := cap(r.buf); c < 10_000 || c > 4*10_000 {
		t.Fatalf("10 KB trace holds a %d-byte buffer", c)
	}
	grown := &r.buf[:1][0]
	r.Reset()
	r.Write([]byte{1, 2, 3})
	if &r.buf[0] != grown {
		t.Error("Reset discarded the grown buffer")
	}
	if d, lost := r.Bytes(); !bytes.Equal(d, []byte{1, 2, 3}) || lost != 0 {
		t.Errorf("after Reset: Bytes = %v lost %d", d, lost)
	}
}

// TestEncoderAllocs pins the encoder's per-packet cost: once the ring
// has grown, emitting packets allocates nothing.
func TestEncoderAllocs(t *testing.T) {
	r := NewRing(1 << 20)
	enc := NewEncoder(r)
	emit := func() {
		for i := 0; i < 300; i++ {
			enc.TNT(i%3 == 0)
		}
		enc.TIP(0xdeadbeef)
		enc.PTW(7, 32, 1<<40)
		enc.PGD(12345)
		enc.Chunk(3, 99)
	}
	emit()
	r.Reset()
	if a := testing.AllocsPerRun(20, func() { r.Reset(); emit() }); a != 0 {
		t.Errorf("encoder allocates %.1f times per batch of packets", a)
	}
}

// TestEncoderGoldenBytes pins the wire format byte for byte: packets
// assembled in the encoder's scratch buffer must match the historical
// encoding exactly.
func TestEncoderGoldenBytes(t *testing.T) {
	r := NewRing(1 << 16)
	enc := NewEncoder(r)
	for i := 0; i < 11; i++ {
		enc.TNT(i%3 != 1)
	}
	enc.TIP(0x1234567)
	enc.PTW(-5, 64, ^uint64(0))
	enc.TNT(true)
	enc.PGD(300)
	enc.Chunk(2, 1<<33)
	enc.Finish()
	got, _ := r.Bytes()
	const want = "82010b6d0302e78a8d0904fbffffff0f40ffffffffffffffffff0101010108ac02070280808080200f"
	if fmt.Sprintf("%x", got) != want {
		t.Errorf("encoding changed:\n got %x\nwant %s", got, want)
	}
}
