package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// HashSink folds every event's canonical JSONL encoding into a running
// SHA-256, without buffering the trace. Because AppendEvent is
// byte-reproducible (fixed field order, fixed float format), two runs
// produce the same Sum exactly when they would produce byte-identical
// JSONL traces — which makes the sink the cheap half of a replay-
// determinism gate: hash two runs of the same seed and compare, instead of
// holding two multi-megabyte traces in memory.
type HashSink struct {
	h   hash.Hash
	enc lineEncoder
	buf []byte // encoded lines not yet folded into h
	n   int
}

// hashBufSize batches the hash writes: SHA-256 costs far less per byte in
// one 4 KB write than in fifty line-sized ones.
const hashBufSize = 4096

// NewHashSink returns an empty trace hasher.
func NewHashSink() *HashSink {
	return &HashSink{h: sha256.New(), buf: make([]byte, 0, hashBufSize)}
}

// Emit implements Sink.
func (s *HashSink) Emit(e Event) {
	s.buf = s.enc.appendEvent(s.buf, &e)
	if cap(s.buf)-len(s.buf) < lineRoom {
		s.flush()
	}
	s.n++
}

func (s *HashSink) flush() {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

// Events returns how many events have been hashed.
func (s *HashSink) Events() int { return s.n }

// Sum returns the hex SHA-256 of the trace so far. It does not reset the
// sink; further events keep accumulating.
func (s *HashSink) Sum() string {
	s.flush()
	return hex.EncodeToString(s.h.Sum(nil))
}
