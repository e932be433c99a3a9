// Package features extracts EMBER-style static feature vectors from PE
// images. It is the feature front-end of the LightGBM-style detector
// (internal/gbdt), mirroring the feature families of Anderson & Roth's
// EMBER dataset at reduced dimensionality: raw byte histogram, byte-entropy
// histogram, header fields, section statistics, printable-string features,
// and import-table features.
//
// The extractor works on raw bytes and degrades gracefully: inputs that do
// not parse as PE still produce the byte-level families, with the
// structural families zeroed — exactly how a robust production pipeline
// behaves when malware corrupts its own headers.
package features

import (
	"math"
	"strings"

	"mpass/internal/corpus"
	"mpass/internal/pefile"
)

// Dimension sizes of each feature family.
const (
	histDim    = 64 // byte histogram, 4 byte values per bin
	entHistDim = 64 // 8 entropy buckets × 8 mean-byte buckets
	headerDim  = 12
	sectionDim = 14
	stringDim  = 10
	importDim  = 6

	// Dim is the total feature vector length.
	Dim = histDim + entHistDim + headerDim + sectionDim + stringDim + importDim
)

// Extract computes the feature vector for a raw sample.
func Extract(raw []byte) []float64 {
	v := make([]float64, 0, Dim)
	v = append(v, byteHistogram(raw)...)
	v = append(v, entropyHistogram(raw)...)

	f, err := pefile.Parse(raw)
	if err != nil {
		v = append(v, make([]float64, headerDim+sectionDim)...)
	} else {
		v = append(v, headerFeatures(f, len(raw))...)
		v = append(v, sectionFeatures(f)...)
	}
	v = append(v, stringFeatures(raw)...)
	v = append(v, importFeatures(raw)...)
	return v
}

// byteHistogram is the normalized 64-bin byte-value histogram.
func byteHistogram(raw []byte) []float64 {
	out := make([]float64, histDim)
	if len(raw) == 0 {
		return out
	}
	for _, b := range raw {
		out[int(b)/4]++
	}
	inv := 1 / float64(len(raw))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Entropy returns the Shannon entropy of b in bits per byte.
func Entropy(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var hist [256]int
	for _, x := range b {
		hist[x]++
	}
	h := 0.0
	inv := 1 / float64(len(b))
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) * inv
		h -= p * math.Log2(p)
	}
	return h
}

// entropyHistogram slides a 256-byte window (stride 128) over the sample
// and accumulates a joint (entropy bucket, mean-byte bucket) histogram,
// the EMBER "byte-entropy histogram" at 8×8 resolution.
func entropyHistogram(raw []byte) []float64 {
	out := make([]float64, entHistDim)
	const win, stride = 256, 128
	if len(raw) == 0 {
		return out
	}
	n := 0
	for off := 0; off == 0 || off+win <= len(raw); off += stride {
		end := off + win
		if end > len(raw) {
			end = len(raw)
		}
		w := raw[off:end]
		e := Entropy(w)
		var sum int
		for _, b := range w {
			sum += int(b)
		}
		mean := float64(sum) / float64(len(w))
		eb := int(e) // entropy in [0,8]
		if eb > 7 {
			eb = 7
		}
		mb := int(mean) / 32
		if mb > 7 {
			mb = 7
		}
		out[eb*8+mb]++
		n++
		if end == len(raw) {
			break
		}
	}
	inv := 1 / float64(n)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// headerFeatures summarizes COFF/optional header fields.
func headerFeatures(f *pefile.File, fileSize int) []float64 {
	o := &f.Optional
	ep := float64(0)
	if s := f.EntrySection(); s != nil && s.IsCode() {
		ep = 1
	}
	return []float64{
		float64(len(f.Sections)),
		logScale(float64(fileSize)),
		logScale(float64(o.SizeOfCode)),
		logScale(float64(o.SizeOfInitializedData)),
		logScale(float64(o.SizeOfImage)),
		logScale(float64(o.AddressOfEntryPoint)),
		ep,
		float64(o.Subsystem),
		float64(f.FileHeader.TimeDateStamp>>24) / 256, // coarse build era
		logScale(float64(len(f.Overlay))),
		float64(o.MajorLinkerVersion),
		boolTo01(len(f.Overlay) > 0),
	}
}

// standardNames are the section names a vanilla toolchain emits; renamed or
// injected sections fall outside this set.
var standardNames = map[string]bool{
	".text": true, ".data": true, ".rdata": true, ".idata": true,
	".rsrc": true, ".reloc": true, ".bss": true,
}

// sectionFeatures summarizes per-section structure and entropy.
func sectionFeatures(f *pefile.File) []float64 {
	var (
		nExec, nData, nNonStd         float64
		codeEnt, dataEnt, maxEnt      float64
		codeBytes, dataBytes, allSize float64
		entryEnt, entryStd            float64
	)
	// EntrySection points into f.Sections, so the loop scores its entropy.
	entry := f.EntrySection()
	for _, s := range f.Sections {
		e := Entropy(s.Data)
		if e > maxEnt {
			maxEnt = e
		}
		if s == entry {
			entryEnt = e
		}
		allSize += float64(len(s.Data))
		if s.IsCode() {
			nExec++
			codeEnt += e
			codeBytes += float64(len(s.Data))
		}
		if s.IsData() {
			nData++
			dataEnt += e
			dataBytes += float64(len(s.Data))
		}
		if !standardNames[s.Name] {
			nNonStd++
		}
	}
	if nExec > 0 {
		codeEnt /= nExec
	}
	if nData > 0 {
		dataEnt /= nData
	}
	var codeRatio, dataRatio float64
	if allSize > 0 {
		codeRatio = codeBytes / allSize
		dataRatio = dataBytes / allSize
	}
	if entry != nil && standardNames[entry.Name] {
		entryStd = 1
	}
	return []float64{
		nExec, nData, nNonStd,
		codeEnt, dataEnt, maxEnt,
		codeRatio, dataRatio,
		logScale(codeBytes), logScale(dataBytes),
		entryEnt, entryStd,
		float64(len(f.SlackRegions())),
		boolTo01(entry == nil),
	}
}

// stringFeatures summarizes printable-string statistics plus a small hashed
// histogram of string content. As in EMBER, strings enter the vector only
// through lossy aggregates — no exact-substring oracle features — so the
// model has to rely on distributional evidence it shares with the byte
// histograms.
func stringFeatures(raw []byte) []float64 {
	var nStrings, totalLen, maxLen float64
	var hashed [4]float64
	cur := 0
	var h uint32 = 2166136261
	flush := func() {
		if cur >= 5 {
			nStrings++
			totalLen += float64(cur)
			if float64(cur) > maxLen {
				maxLen = float64(cur)
			}
			hashed[h%4]++
		}
		cur = 0
		h = 2166136261
	}
	for _, b := range raw {
		if b >= 0x20 && b < 0x7F {
			cur++
			h = (h ^ uint32(b)) * 16777619
		} else {
			flush()
		}
	}
	flush()
	avgLen := 0.0
	if nStrings > 0 {
		avgLen = totalLen / nStrings
	}
	out := []float64{
		logScale(nStrings),
		avgLen / 32,
		logScale(maxLen),
		logScale(totalLen),
		boolTo01(nStrings == 0),
		boolTo01(totalLen > 0 && totalLen/float64(len(raw)+1) > 0.5),
	}
	for _, v := range hashed {
		out = append(out, logScale(v))
	}
	return out
}

// importFeatures hashes every known API name present in the image into a
// small bucket histogram — EMBER's hashed import features at reduced width.
// Benign and sensitive names collide in buckets, so no single feature is a
// class oracle; appended benign content dilutes the same buckets.
func importFeatures(raw []byte) []float64 {
	s := string(raw)
	out := make([]float64, importDim)
	count := func(name string) {
		n := strings.Count(s, name)
		if n == 0 {
			return
		}
		var h uint32 = 2166136261
		for i := 0; i < len(name); i++ {
			h = (h ^ uint32(name[i])) * 16777619
		}
		out[int(h)%(importDim)] += float64(n)
	}
	for _, a := range corpus.BenignAPIs {
		count(a.Name)
	}
	for _, a := range corpus.SensitiveAPIs {
		count(a.Name)
	}
	for i := range out {
		out[i] = logScale(out[i])
	}
	return out
}

func logScale(x float64) float64 { return math.Log1p(x) }

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
