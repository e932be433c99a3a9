package features

import (
	"bytes"

	"mpass/internal/corpus"
)

// StreamExtractor computes Extract's feature vector from a sample fed as a
// sequence of chunks, in bounded memory regardless of sample size.
//
// The byte-level families (byte histogram, byte-entropy histogram, string
// statistics, hashed imports) accumulate incrementally and reproduce
// Extract bit for bit under every chunking: histograms keep integer counts
// that dequantize to the same normalized floats, the entropy window rolls
// through a 256-byte buffer replicating Extract's exact window/stride/
// short-window rules, string runs carry their (length, FNV) state across
// chunk seams, and import-name counting stitches chunk boundaries with a
// tail buffer of the longest name minus one byte (sound because no known
// API name self-overlaps — stream_test.go pins that corpus invariant).
//
// The structural families (header, sections) need pefile.Parse over the
// whole image, so the extractor buffers a bounded prefix: samples no larger
// than the cap finish through Extract itself (bit-exact in every family),
// while larger samples drop the buffer and zero the structural features —
// exactly Extract's documented degraded mode for unparseable PEs. Peak
// memory is O(cap), constant in the sample size.
type StreamExtractor struct {
	structCap int
	overflow  bool
	prefix    []byte
	total     int64

	hist [histDim]int64

	entBuf  [256]byte
	entFill int
	entBins [entHistDim]int64
	entWins int64

	curRun             int
	runHash            uint32
	nStrings, totalLen float64
	maxLen             float64
	hashed             [4]float64

	apiCounts []int64
	tail      []byte
	seam      []byte
}

// DefaultStructuralCap is the prefix-buffer bound of NewStreamExtractor:
// large enough that every upload the buffered scan path accepts
// (internal/server's MaxBodyBytes) still gets exact structural features
// when routed through a stream instead.
const DefaultStructuralCap = 8 << 20

// apiPattern is one known API name prepared for incremental counting.
type apiPattern struct {
	pat    []byte
	bucket int
}

var (
	apiPatterns = buildAPIPatterns()
	// apiTailKeep is the seam width: an occurrence crossing a chunk
	// boundary starts at most len(name)-1 bytes before it.
	apiTailKeep = maxPatternLen(apiPatterns) - 1
)

func buildAPIPatterns() []apiPattern {
	var out []apiPattern
	add := func(name string) {
		var h uint32 = 2166136261
		for i := 0; i < len(name); i++ {
			h = (h ^ uint32(name[i])) * 16777619
		}
		out = append(out, apiPattern{pat: []byte(name), bucket: int(h) % importDim})
	}
	for _, a := range corpus.BenignAPIs {
		add(a.Name)
	}
	for _, a := range corpus.SensitiveAPIs {
		add(a.Name)
	}
	return out
}

func maxPatternLen(ps []apiPattern) int {
	m := 1
	for _, p := range ps {
		if len(p.pat) > m {
			m = len(p.pat)
		}
	}
	return m
}

// NewStreamExtractor returns a stream extractor with the default
// structural prefix cap.
func NewStreamExtractor() *StreamExtractor {
	return NewStreamExtractorCap(DefaultStructuralCap)
}

// NewStreamExtractorCap bounds the structural prefix buffer at cap bytes;
// samples larger than cap get zeroed structural features. A cap of 0
// disables structural buffering entirely (every sample takes the
// incremental path), which the equivalence tests use to force it.
func NewStreamExtractorCap(cap int) *StreamExtractor {
	e := &StreamExtractor{
		structCap: cap,
		apiCounts: make([]int64, len(apiPatterns)),
		tail:      make([]byte, 0, apiTailKeep),
		seam:      make([]byte, 0, 2*apiTailKeep),
	}
	e.runHash = 2166136261
	return e
}

// Feed appends one chunk of the sample.
func (e *StreamExtractor) Feed(p []byte) {
	if len(p) == 0 {
		return
	}
	e.total += int64(len(p))

	// Structural prefix: keep while the whole sample can still fit, drop
	// the moment it cannot — memory goes back to O(chunk) and Finish takes
	// the incremental path.
	if !e.overflow {
		if len(p) <= e.structCap-len(e.prefix) {
			e.prefix = append(e.prefix, p...)
		} else {
			e.overflow = true
			e.prefix = nil
		}
	}

	for _, b := range p {
		e.hist[int(b)/4]++
	}

	// Entropy windows: fill the rolling 256-byte buffer; every time it
	// fills, one stride-aligned window is complete. Sliding keeps the last
	// 128 bytes, so windows start at exact multiples of the stride — the
	// same off sequence Extract walks, with partial tails never processed.
	q := p
	for len(q) > 0 {
		n := copy(e.entBuf[e.entFill:], q)
		e.entFill += n
		q = q[n:]
		if e.entFill == len(e.entBuf) {
			e.entWindow(e.entBuf[:])
			copy(e.entBuf[:128], e.entBuf[128:])
			e.entFill = 128
		}
	}

	for _, b := range p {
		if b >= 0x20 && b < 0x7F {
			e.curRun++
			e.runHash = (e.runHash ^ uint32(b)) * 16777619
		} else {
			e.flushRun()
		}
	}

	e.countImports(p)
}

// entWindow replicates Extract's per-window entropy/mean binning.
func (e *StreamExtractor) entWindow(w []byte) {
	ent := Entropy(w)
	var sum int
	for _, b := range w {
		sum += int(b)
	}
	mean := float64(sum) / float64(len(w))
	eb := int(ent)
	if eb > 7 {
		eb = 7
	}
	mb := int(mean) / 32
	if mb > 7 {
		mb = 7
	}
	e.entBins[eb*8+mb]++
	e.entWins++
}

// flushRun ends the current printable run, replicating stringFeatures'
// flush rule.
func (e *StreamExtractor) flushRun() {
	if e.curRun >= 5 {
		e.nStrings++
		e.totalLen += float64(e.curRun)
		if float64(e.curRun) > e.maxLen {
			e.maxLen = float64(e.curRun)
		}
		e.hashed[e.runHash%4]++
	}
	e.curRun = 0
	e.runHash = 2166136261
}

// countImports counts API-name occurrences: first those crossing the
// previous chunk boundary (via the tail+prefix seam), then those fully
// inside p, then it rolls the tail forward. Occurrences are non-
// overlapping, matching strings.Count over the whole sample.
func (e *StreamExtractor) countImports(p []byte) {
	if tl := len(e.tail); tl > 0 {
		e.seam = append(e.seam[:0], e.tail...)
		n := apiTailKeep
		if n > len(p) {
			n = len(p)
		}
		e.seam = append(e.seam, p[:n]...)
		for i := range apiPatterns {
			pat := apiPatterns[i].pat
			L := len(pat)
			s := tl - L + 1
			if s < 0 {
				s = 0
			}
			for ; s < tl && s+L <= len(e.seam); s++ {
				if bytes.Equal(e.seam[s:s+L], pat) {
					e.apiCounts[i]++
					s += L - 1 // skip the match; occurrences never overlap
				}
			}
		}
	}
	for i := range apiPatterns {
		e.apiCounts[i] += int64(bytes.Count(p, apiPatterns[i].pat))
	}
	if len(p) >= apiTailKeep {
		e.tail = append(e.tail[:0], p[len(p)-apiTailKeep:]...)
	} else {
		keep := apiTailKeep - len(p)
		if keep > len(e.tail) {
			keep = len(e.tail)
		}
		copy(e.tail, e.tail[len(e.tail)-keep:])
		e.tail = append(e.tail[:keep], p...)
	}
}

// Finish closes the stream and returns the feature vector. Samples that
// fit the structural cap go through Extract itself; larger ones assemble
// the incremental families with structural features zeroed. The extractor
// must be Reset before reuse.
func (e *StreamExtractor) Finish() []float64 {
	e.flushRun()
	if !e.overflow {
		return Extract(e.prefix)
	}

	v := make([]float64, 0, Dim)

	bh := make([]float64, histDim)
	inv := 1 / float64(e.total)
	for i, c := range e.hist {
		bh[i] = float64(c) * inv
	}
	v = append(v, bh...)

	if e.entWins == 0 {
		e.entWindow(e.entBuf[:e.entFill])
	}
	eh := make([]float64, entHistDim)
	einv := 1 / float64(e.entWins)
	for i, c := range e.entBins {
		eh[i] = float64(c) * einv
	}
	v = append(v, eh...)

	// Structural families: the image exceeded the prefix cap, so no parse
	// is possible — same zeroed block Extract emits for unparseable PEs.
	v = append(v, make([]float64, headerDim+sectionDim)...)

	avgLen := 0.0
	if e.nStrings > 0 {
		avgLen = e.totalLen / e.nStrings
	}
	v = append(v,
		logScale(e.nStrings),
		avgLen/32,
		logScale(e.maxLen),
		logScale(e.totalLen),
		boolTo01(e.nStrings == 0),
		boolTo01(e.totalLen > 0 && e.totalLen/float64(e.total+1) > 0.5),
	)
	for _, h := range e.hashed {
		v = append(v, logScale(h))
	}

	imp := make([]float64, importDim)
	for i, c := range e.apiCounts {
		imp[apiPatterns[i].bucket] += float64(c)
	}
	for i := range imp {
		imp[i] = logScale(imp[i])
	}
	v = append(v, imp...)
	return v
}
