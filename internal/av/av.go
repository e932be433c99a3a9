// Package av simulates the five commercial ML-based antivirus products the
// paper attacks through VirusTotal (§IV-B: MAX, CrowdStrike, Acronis,
// SentinelOne, Cylance — anonymized as AV1..AV5).
//
// Each AV is a heterogeneous detector ensemble behind a hard-label query
// interface: one or two ML members (gated-conv nets and boosted trees with
// vendor-specific architectures, seeds, and thresholds), static heuristics
// commercial engines ship (packed-file entropy, byte-distribution anomaly),
// and a byte-signature store. The ensembles differ enough that Figure 3's
// per-AV spread emerges naturally.
//
// The signature store implements the paper's §IV-C "commercial ML AVs'
// learning": given the pool of samples submitted to the AV, LearnRound
// mines invariant byte n-grams that recur across submissions but never
// appear in the vendor's benign reference corpus, and adds them as
// detection signatures. Attacks whose AEs share fixed artifacts (packer
// stubs, reused payloads, untouched malware data constants) decay round
// over round; MPass's shuffled stubs and per-AE donors leave nothing to
// mine.
package av

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/features"
	"mpass/internal/nn"
	"mpass/internal/parallel"
	"mpass/internal/pefile"
)

// member is one detection component of an AV ensemble.
type member interface {
	flag(raw []byte) bool
}

// scoreMember wraps an ML detector with a vendor-specific threshold.
type scoreMember struct {
	d   detect.Detector
	thr float64
}

func (m scoreMember) flag(raw []byte) bool { return m.d.Score(raw) >= m.thr }

// entropyMember is the packed-file heuristic: flag when any code or
// initialized-data section of meaningful size has near-uniform entropy.
type entropyMember struct {
	thr     float64
	minSize int
}

func (m entropyMember) flag(raw []byte) bool {
	f, err := pefile.Parse(raw)
	if err != nil {
		return true // unparsable submissions are flagged, as real engines do
	}
	for _, s := range f.Sections {
		if len(s.Data) < m.minSize {
			continue
		}
		if s.IsCode() || s.Characteristics&pefile.SecInitializedData != 0 {
			if features.Entropy(s.Data) >= m.thr {
				return true
			}
		}
	}
	return false
}

// noveltyMember models the reputation/anomaly component of commercial
// engines: a file whose static feature vector sits far from everything in
// the vendor's benign corpus is suspicious regardless of classifier scores.
// Distance is z-scored per dimension against the benign corpus statistics,
// then averaged, so no single feature family dominates.
type noveltyMember struct {
	refs  [][]float64 // benign feature vectors
	mean  []float64
	invSD []float64
	thr   float64
}

func newNoveltyMember(benign [][]byte, thr float64) *noveltyMember {
	m := &noveltyMember{thr: thr}
	for _, b := range benign {
		m.refs = append(m.refs, features.Extract(b))
	}
	dim := len(m.refs[0])
	m.mean = make([]float64, dim)
	m.invSD = make([]float64, dim)
	for _, v := range m.refs {
		for i, x := range v {
			m.mean[i] += x
		}
	}
	for i := range m.mean {
		m.mean[i] /= float64(len(m.refs))
	}
	for _, v := range m.refs {
		for i, x := range v {
			d := x - m.mean[i]
			m.invSD[i] += d * d
		}
	}
	for i := range m.invSD {
		sd := math.Sqrt(m.invSD[i] / float64(len(m.refs)))
		// Floor the deviation so near-constant dimensions (rare flags,
		// fixed header fields) cannot dominate the distance alone.
		if sd < 0.05 {
			sd = 0.05
		}
		m.invSD[i] = 1 / sd
	}
	return m
}

// distance returns the mean z-scored distance to the nearest benign
// reference.
func (m *noveltyMember) distance(raw []byte) float64 {
	v := features.Extract(raw)
	best := math.Inf(1)
	for _, r := range m.refs {
		var s float64
		for i := range v {
			d := (v[i] - r[i]) * m.invSD[i]
			s += d * d
		}
		if s < best {
			best = s
		}
	}
	return math.Sqrt(best / float64(len(v)))
}

func (m *noveltyMember) flag(raw []byte) bool { return m.distance(raw) >= m.thr }

// withThr returns a copy sharing the reference statistics but with its own
// threshold, so the (expensive) reference table is built once per suite.
func (m *noveltyMember) withThr(thr float64) *noveltyMember {
	c := *m
	c.thr = thr
	return &c
}

// packerMember is the classic packer heuristic every commercial engine
// ships: flag files whose section table carries known packer names, or
// whose executable sections are zeroed-out shells (content moved to a
// compressed blob).
type packerMember struct {
	names       []string
	flagZeroExe bool
}

func (m packerMember) flag(raw []byte) bool {
	f, err := pefile.Parse(raw)
	if err != nil {
		return true
	}
	for _, s := range f.Sections {
		for _, n := range m.names {
			if s.Name == n {
				return true
			}
		}
		if m.flagZeroExe && s.IsCode() && len(s.Data) >= 256 {
			zero := true
			for _, b := range s.Data {
				if b != 0 {
					zero = false
					break
				}
			}
			if zero {
				return true
			}
		}
	}
	return false
}

// knownPackerNames are the telltale section names of common packers.
var knownPackerNames = []string{"UPX0", "UPX1", ".aspack", ".adata", ".pspin", ".themida", ".vmp0"}

// histMember is the byte-distribution anomaly heuristic: flag when the
// whole-file byte histogram diverges from the benign profile by more than
// the threshold (L1 distance).
type histMember struct {
	profile []float64 // mean benign 64-bin histogram
	thr     float64
}

func newHistMember(benign [][]byte, thr float64) *histMember {
	prof := make([]float64, 64)
	for _, b := range benign {
		for _, x := range b {
			prof[int(x)/4]++
		}
	}
	var total float64
	for _, v := range prof {
		total += v
	}
	for i := range prof {
		prof[i] /= total
	}
	return &histMember{profile: prof, thr: thr}
}

func (m *histMember) flag(raw []byte) bool {
	if len(raw) == 0 {
		return true
	}
	hist := make([]float64, 64)
	for _, x := range raw {
		hist[int(x)/4]++
	}
	var dist float64
	inv := 1 / float64(len(raw))
	for i := range hist {
		d := hist[i]*inv - m.profile[i]
		if d < 0 {
			d = -d
		}
		dist += d
	}
	return dist >= m.thr
}

// AV is one simulated commercial ML antivirus.
type AV struct {
	name    string
	members []member
	sigs    [][]byte // learned byte signatures
	// benignRef is the vendor's benign corpus, concatenated for substring
	// checks during signature mining.
	benignRef []byte
}

// Name implements core.Oracle.
func (a *AV) Name() string { return a.name }

// Detected implements core.Oracle: hard-label verdict over all members and
// learned signatures.
func (a *AV) Detected(raw []byte) bool {
	for _, sig := range a.sigs {
		if bytes.Contains(raw, sig) {
			return true
		}
	}
	for _, m := range a.members {
		if m.flag(raw) {
			return true
		}
	}
	return false
}

// SignatureCount reports how many byte signatures the AV has learned.
func (a *AV) SignatureCount() int { return len(a.sigs) }

// ResetSignatures clears learned state (used between experiments).
func (a *AV) ResetSignatures() { a.sigs = nil }

// LearnRound mines up to maxNew invariant byte signatures from the pool of
// submitted samples and adds them to the AV's store. A window qualifies
// when it recurs in at least minSupport distinct submissions, never occurs
// in the vendor's benign reference corpus, and carries enough information
// to be a usable signature.
//
// Mining walks section contents and the overlay, not raw file bytes:
// vendors normalize the PE before signature extraction, because raw-header
// windows (section tables, alignment padding) are both volatile and
// false-positive prone.
func (a *AV) LearnRound(pool [][]byte, maxNew int) int {
	const (
		sigLen = 24
		stride = 8
	)
	if len(pool) == 0 || maxNew <= 0 {
		return 0
	}
	minSupport := len(pool) / 5
	if minSupport < 2 {
		minSupport = 2
	}

	support := make(map[string]int)
	for _, raw := range pool {
		seen := make(map[string]bool)
		for _, region := range contentRegions(raw) {
			for off := 0; off+sigLen <= len(region); off += stride {
				w := string(region[off : off+sigLen])
				if !seen[w] {
					seen[w] = true
					support[w]++
				}
			}
		}
	}

	type cand struct {
		w string
		n int
	}
	var cands []cand
	for w, n := range support {
		if n >= minSupport {
			cands = append(cands, cand{w, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].w < cands[j].w
	})

	added := 0
	for _, c := range cands {
		if added >= maxNew {
			break
		}
		w := []byte(c.w)
		if lowInformation(w) || bytes.Contains(a.benignRef, w) {
			continue // useless or false-positive-prone
		}
		// Padding-boundary windows: zeros act as wildcards in real
		// signature QA, so a window whose zero-trimmed core is ordinary
		// goodware content would false-positive on half the software in
		// existence. Reject those too.
		if core := bytes.Trim(w, "\x00"); len(core) < len(w) &&
			(len(core) < 8 || bytes.Contains(a.benignRef, core)) {
			continue
		}
		dup := false
		for _, s := range a.sigs {
			if bytes.Equal(s, w) {
				dup = true
				break
			}
		}
		if !dup {
			a.sigs = append(a.sigs, w)
			added++
		}
	}
	return added
}

// contentRegions returns the byte regions signature mining may use: every
// section's content plus the overlay. Unparsable submissions fall back to
// the raw bytes.
func contentRegions(raw []byte) [][]byte {
	f, err := pefile.Parse(raw)
	if err != nil {
		return [][]byte{raw}
	}
	var out [][]byte
	for _, s := range f.Sections {
		if len(s.Data) > 0 {
			out = append(out, s.Data)
		}
	}
	if len(f.Overlay) > 0 {
		out = append(out, f.Overlay)
	}
	return out
}

// lowInformation rejects padding-like windows (alignment runs, sparse
// fills) that would fire on half the software in existence.
func lowInformation(b []byte) bool {
	var seen [256]bool
	distinct := 0
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			distinct++
		}
	}
	return distinct < 6
}

// SuiteConfig controls construction of the five AVs.
type SuiteConfig struct {
	Train detect.TrainConfig
	Seed  int64
	// VendorMalware/VendorBenign size the vendors' own training corpus
	// (zero selects the defaults). Vendor models train on their own,
	// heavily augmented dataset — see corpus.MakeVendorDataset.
	VendorMalware, VendorBenign int
	// ExtraBenignRef is additional known-benign software folded into the
	// vendors' signature false-positive reference. The paper's attackers
	// harvest donors "from the local Microsoft Windows system and GitHub" —
	// software every AV vendor also has in its benign corpus, which is why
	// verbatim benign content can never become a detection signature.
	ExtraBenignRef [][]byte
}

// DefaultSuiteConfig mirrors the offline training defaults.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{Train: detect.DefaultTrainConfig(), Seed: 9000}
}

// NewSuite trains and assembles AV1..AV5. The dataset plays the role of the
// vendors' (much larger) training corpora; the benign training split also
// serves as each vendor's benign reference for signature mining.
func NewSuite(ds *corpus.Dataset, cfg SuiteConfig) ([]*AV, error) {
	var benign [][]byte
	var refBuf bytes.Buffer
	for _, s := range ds.Train {
		if s.Family == corpus.Benign {
			benign = append(benign, s.Raw)
			refBuf.Write(s.Raw)
		}
	}
	if len(benign) == 0 {
		return nil, fmt.Errorf("av: no benign training samples")
	}
	for _, b := range cfg.ExtraBenignRef {
		refBuf.Write(b)
	}
	ref := refBuf.Bytes()

	// Vendor models train on their own, heavily augmented corpus: real AV
	// vendors see repacked and bundled malware at scale, which makes their
	// classifiers far more resistant to append/injection washout than the
	// offline academic models.
	nMal, nBen := cfg.VendorMalware, cfg.VendorBenign
	if nMal == 0 {
		nMal = 60
	}
	if nBen == 0 {
		nBen = 60
	}
	vendorDS := corpus.MakeVendorDataset(cfg.Seed+333, nMal, nBen, 0.85)

	tc := cfg.Train
	conv := func(name string, seed int64, kernel, stride, filters, hidden int) (*detect.ConvDetector, error) {
		return detect.TrainConvCustom(name, nn.ConvConfig{
			SeqLen: detect.SeqLen, EmbedDim: 4,
			Kernel: kernel, Stride: stride, Filters: filters, Hidden: hidden,
			Seed: seed,
		}, vendorDS, tc)
	}

	// The vendor models share nothing but the read-only corpus — distinct
	// architectures, seeds, and calibration — so the whole zoo trains
	// concurrently, alongside the (feature-extraction-heavy) novelty
	// reference statistics.
	var c1, c2, c3, c5 *detect.ConvDetector
	var g2, g4 *detect.GBDTDetector
	var novelty *noveltyMember
	err := parallel.Do(tc.Workers,
		func() (e error) { c1, e = conv("av1-conv", cfg.Seed+1, 8, 8, 10, 0); return },
		func() (e error) { c2, e = conv("av2-conv", cfg.Seed+2, 16, 16, 12, 6); return },
		func() (e error) { c3, e = conv("av3-conv", cfg.Seed+3, 8, 4, 6, 0); return },
		func() (e error) { c5, e = conv("av5-conv", cfg.Seed+5, 24, 8, 12, 8); return },
		func() (e error) { g2, e = detect.TrainLightGBM(vendorDS, tc); return },
		func() (e error) {
			g4, e = detect.TrainLightGBM(vendorDS, detect.TrainConfig{
				Epochs: tc.Epochs, BatchSize: tc.BatchSize, LR: tc.LR,
				TargetFPR: tc.TargetFPR / 2, Seed: cfg.Seed + 4, Workers: tc.Workers,
			})
			return
		},
		func() error { novelty = newNoveltyMember(benign, 0); return nil }, // thresholds set per vendor below
	)
	if err != nil {
		return nil, err
	}

	// Per-vendor ensembles. Thresholds below each member's calibrated value
	// make the AVs stricter than the offline models, and the heuristic mix
	// differs per vendor — both properties Figure 3 and Tables IV-VI rely
	// on.

	avs := []*AV{
		{
			name: "AV1",
			members: []member{
				scoreMember{c1, maxF(c1.Threshold*0.5, 0.25)},
				entropyMember{thr: 7.90, minSize: 256},
				packerMember{names: knownPackerNames, flagZeroExe: true},
				newHistMember(benign, 0.95),
				novelty.withThr(6.67),
			},
		},
		{
			name: "AV2",
			members: []member{
				scoreMember{c2, maxF(c2.Threshold*0.55, 0.28)},
				scoreMember{g2, maxF(g2.Threshold*0.5, 0.25)},
				entropyMember{thr: 7.92, minSize: 256},
				packerMember{names: knownPackerNames},
				novelty.withThr(6.64),
			},
		},
		{
			name: "AV3",
			members: []member{
				scoreMember{c3, maxF(c3.Threshold*0.7, 0.35)},
				entropyMember{thr: 7.95, minSize: 384},
				packerMember{names: knownPackerNames},
				novelty.withThr(7.02),
			},
		},
		{
			name: "AV4",
			members: []member{
				scoreMember{g4, maxF(g4.Threshold*0.55, 0.28)},
				entropyMember{thr: 7.90, minSize: 256},
				packerMember{names: knownPackerNames, flagZeroExe: true},
				newHistMember(benign, 1.05),
				novelty.withThr(6.70),
			},
		},
		{
			name: "AV5",
			members: []member{
				scoreMember{c5, maxF(c5.Threshold*0.4, 0.20)},
				scoreMember{c1, maxF(c1.Threshold*0.6, 0.30)},
				entropyMember{thr: 7.85, minSize: 256},
				packerMember{names: knownPackerNames, flagZeroExe: true},
				newHistMember(benign, 0.85),
				novelty.withThr(6.62),
			},
		},
	}
	for _, a := range avs {
		a.benignRef = ref
	}
	return avs, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
