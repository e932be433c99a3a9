package nn

// ConvStream scores one sample fed as a sequence of chunks, in O(SeqLen)
// memory regardless of sample size.
//
// The MalConv-family models truncate (or zero-pad) every input to
// Cfg.SeqLen bytes before the convolution, so a streaming pass needs no
// window-carry machinery at all: Feed copies bytes into the pooled padded-
// input scratch until it is full and discards the rest, and Finish scores
// the filled prefix through the normal bounded table forward, which pads
// only as far as it reads. Scores are therefore exactly
// Predict(concat(chunks)), bit for bit, under every chunking. stream_test.go
// pins that equivalence.
//
// A ConvStream is single-use: after Finish it recycles itself (and its
// scratch) through the network's pools, so steady-state streaming allocates
// nothing. It must not be shared across goroutines.
type ConvStream struct {
	n    *ConvNet
	sc   *scratch
	fill int
}

// NewStream starts a streaming score. The returned stream must be finished
// (exactly once) to release its scratch.
func (n *ConvNet) NewStream() *ConvStream {
	var s *ConvStream
	if v := n.streamPool.Get(); v != nil {
		s = v.(*ConvStream)
	} else {
		s = &ConvStream{}
	}
	s.n = n
	s.sc = n.getScratch()
	s.fill = 0
	return s
}

// Feed appends one chunk of the sample. Bytes beyond SeqLen are consumed
// and ignored, mirroring Predict's truncation.
//
//mpass:zeroalloc
func (s *ConvStream) Feed(p []byte) {
	buf := s.sc.padBuf
	if s.fill >= len(buf) {
		return
	}
	s.fill += copy(buf[s.fill:], p)
}

// Finish scores the fed bytes through the table path, releases the
// stream's buffers, and returns the malware probability. The stream must
// not be used afterwards.
func (s *ConvStream) Finish() float64 {
	n, sc := s.n, s.sc
	score := n.forwardTable(sc.padBuf[:s.fill], n.tables(), sc).score
	n.putScratch(sc)
	s.sc = nil
	s.fill = 0
	n.streamPool.Put(s)
	return score
}
