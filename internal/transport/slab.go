package transport

// Slab encodes frame payloads into chunks owned by one run, so
// shipping a frame allocates nothing. A chunk is allocated when the
// write position first reaches it and is never moved; Reset rewinds
// to the first chunk and writes over the old payloads.
//
// Ownership: a payload returned by Encode stays valid until the next
// Reset. The simulator resets once per round, after the round's drain
// (see Transport), so the slab holds at most one round's payloads.
// The zero value is ready to use.
type Slab struct {
	w        Writer
	chunks   [][]byte
	cur, off int // write position: chunk index and offset within it
}

// slabChunk is the size of one slab chunk, a few hundred typical
// payloads.
const slabChunk = 4 << 10

// Encode appends the self-describing encoding of msg (the bytes
// EncodeMessage produces) to the slab and returns it. An unregistered
// type, nested payloads included, is returned as an error.
func (s *Slab) Encode(msg interface{}) (payload []byte, err error) {
	defer RecoverEncode(&err)
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]byte, slabChunk))
	}
	tail := s.chunks[s.cur][s.off:]
	s.w.buf = tail[:0:len(tail)]
	if err := s.w.message(msg); err != nil {
		return nil, err
	}
	payload = s.w.buf[:len(s.w.buf):len(s.w.buf)]
	if cap(s.w.buf) != len(tail) {
		// The payload outgrew the chunk's tail and append moved it to
		// a heap array of its own; the next payload opens a new chunk.
		s.cur, s.off = s.cur+1, 0
		return payload, nil
	}
	s.off += len(payload)
	return payload, nil
}

// Reset recycles every chunk. Payloads returned before the call are
// overwritten by later Encode calls.
func (s *Slab) Reset() { s.cur, s.off = 0, 0 }
