package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestWriterReaderBytes pins the length-prefixed byte-string field
// used by the service protocol: round-trips (including empty), exact
// offsets, and the truncation hardening — a length prefix larger than
// the remaining buffer must poison the reader without allocating.
func TestWriterReaderBytes(t *testing.T) {
	var w Writer
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.Bytes([]byte{0, 1, 2})
	w.Int(-7)

	r := Reader{buf: w.buf}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("first string: got %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty string: got %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Fatalf("binary string: got %v", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("trailing int: got %d", got)
	}
	if r.Err() != nil {
		t.Fatalf("clean decode errored: %v", r.Err())
	}
	if r.off != len(r.buf) {
		t.Fatalf("decode left %d byte(s) unconsumed", len(r.buf)-r.off)
	}
}

// TestReaderBytesTruncated feeds hostile length prefixes: a length
// beyond the remaining buffer (small and absurd) must error rather
// than allocate or panic, and the poisoned reader must stay poisoned.
func TestReaderBytesTruncated(t *testing.T) {
	for _, n := range []uint64{6, 1 << 40, 1<<64 - 1} {
		buf := binary.AppendUvarint(nil, n)
		buf = append(buf, []byte("short")...)
		r := Reader{buf: buf}
		if got := r.Bytes(); got != nil {
			t.Errorf("length %d: got %d byte(s), want nil", n, len(got))
		}
		if r.Err() == nil {
			t.Errorf("length %d: truncated byte string accepted", n)
		}
		if got := r.Bytes(); got != nil || r.Err() == nil {
			t.Errorf("length %d: poisoned reader produced data", n)
		}
	}
}

// appendFrameReference is the frame encoding as first written: the
// body built in a scratch slice, then length-prefixed. AppendFrame
// sizes the body arithmetically and writes in place; the bytes must
// not change.
func appendFrameReference(buf []byte, f Frame) []byte {
	body := make([]byte, 0, 32+len(f.Payload))
	body = binary.AppendVarint(body, f.Round)
	body = binary.AppendVarint(body, f.Seq)
	body = binary.AppendVarint(body, int64(f.From))
	body = binary.AppendVarint(body, int64(f.Port))
	body = binary.AppendVarint(body, int64(f.To))
	body = binary.AppendVarint(body, int64(f.Rev))
	body = binary.AppendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// TestAppendFrameMatchesReference pins AppendFrame byte for byte
// against the reference encoding, across varint width boundaries of
// every header field and of the body length prefix (payloads around
// 127/128 and 16383/16384 bytes), appended to a non-empty buffer.
func TestAppendFrameMatchesReference(t *testing.T) {
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 8191, 8192, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63}
	int32s := []int32{0, 1, -1, 63, 64, 8192, 1<<31 - 1, -1 << 31}
	var frames []Frame
	for i, v := range ints {
		frames = append(frames, Frame{Round: v, Seq: ints[len(ints)-1-i]})
	}
	for i, v := range int32s {
		w := int32s[(i+3)%len(int32s)]
		frames = append(frames, Frame{Round: 5, From: v, Port: w, To: -v, Rev: w ^ v})
	}
	for _, n := range []int{0, 1, 100, 110, 115, 116, 117, 118, 127, 128, 16300, 16370, 16371, 16372, 16383, 16384, 70000} {
		frames = append(frames, Frame{Round: 9, Seq: 3, From: 2, Port: 1, To: 7, Rev: 4, Payload: bytes.Repeat([]byte{byte(n)}, n)})
	}
	prefix := []byte{0xde, 0xad}
	for _, f := range frames {
		want := appendFrameReference(append([]byte(nil), prefix...), f)
		got := AppendFrame(append([]byte(nil), prefix...), f)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFrame(Round %d Seq %d From %d Port %d To %d Rev %d, %d payload bytes) differs from the reference encoding",
				f.Round, f.Seq, f.From, f.Port, f.To, f.Rev, len(f.Payload))
		}
		if FrameWireBytes(f) != int64(len(want)-len(prefix)) {
			t.Fatalf("FrameWireBytes = %d, reference encoding is %d bytes", FrameWireBytes(f), len(want)-len(prefix))
		}
	}
}

// TestSlabEncodeMatchesEncodeMessage checks the slab's in-place
// encoding against EncodeMessage over enough payloads to fill several
// chunks, one larger than a chunk, and a second pass after Reset that
// writes over the first pass's bytes; no payload may overlap another
// of its pass.
func TestSlabEncodeMatchesEncodeMessage(t *testing.T) {
	var s Slab
	msgs := []interface{}{nil, testMsg{A: 1}}
	for i := 0; i < 2000; i++ {
		msgs = append(msgs, testMsg{A: int64(i) * 7919, B: uint64(i), C: i%2 == 0, Body: testMsg{A: -int64(i)}})
	}
	var big interface{} = testMsg{}
	for i := 0; i < 1000; i++ {
		big = testMsg{A: 1 << 50, Body: big}
	}
	msgs = append(msgs, big, testMsg{B: 1})
	for pass := 0; pass < 2; pass++ {
		s.Reset()
		payloads := make([][]byte, len(msgs))
		for i, msg := range msgs {
			p, err := s.Encode(msg)
			if err != nil {
				t.Fatalf("pass %d: Encode #%d: %v", pass, i, err)
			}
			payloads[i] = p
		}
		for i, msg := range msgs {
			want, err := EncodeMessage(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payloads[i], want) {
				t.Fatalf("pass %d: payload #%d was overwritten or misencoded", pass, i)
			}
			if cap(payloads[i]) != len(payloads[i]) {
				t.Fatalf("pass %d: payload #%d has spare capacity %d", pass, i, cap(payloads[i])-len(payloads[i]))
			}
		}
	}
	if len(s.chunks) < 3 {
		t.Fatalf("%d chunk(s) used, want the payloads to span several", len(s.chunks))
	}
	if _, err := s.Encode(testMsg{Body: struct{ X int }{1}}); err == nil {
		t.Fatal("Encode of a nested unregistered type should fail")
	}
}

// TestVarintLen checks the arithmetic varint sizes FrameWireBytes and
// AppendFrame rely on against the encoder, at every 7-bit group
// boundary and at the extremes.
func TestVarintLen(t *testing.T) {
	var buf []byte
	for shift := 0; shift < 64; shift++ {
		for _, x := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(x), int64(len(binary.AppendUvarint(buf[:0], x))); got != want {
				t.Fatalf("uvarintLen(%d) = %d, encoder writes %d", x, got, want)
			}
			for _, v := range []int64{int64(x), -int64(x)} {
				if got, want := varintLen(v), int64(len(binary.AppendVarint(buf[:0], v))); got != want {
					t.Fatalf("varintLen(%d) = %d, encoder writes %d", v, got, want)
				}
			}
		}
	}
	for _, x := range []uint64{0, 1<<64 - 1} {
		if got, want := uvarintLen(x), int64(len(binary.AppendUvarint(buf[:0], x))); got != want {
			t.Fatalf("uvarintLen(%d) = %d, encoder writes %d", x, got, want)
		}
	}
}
