// Package gbdt implements gradient-boosted regression trees with logistic
// loss — the from-scratch stand-in for the LightGBM model the paper attacks
// via the EMBER feature set. Trees are grown depth-first with exact
// variance-reduction splits and leaves take a single Newton step, the same
// second-order update LightGBM applies.
package gbdt

import (
	"fmt"
	"math"
	"sort"

	"mpass/internal/tensor"
)

// Config controls boosting.
type Config struct {
	Trees        int     // number of boosting rounds
	MaxDepth     int     // maximum tree depth
	LearningRate float64 // shrinkage per round
	MinLeaf      int     // minimum samples per leaf
	Lambda       float64 // L2 regularization on leaf values
}

// DefaultConfig mirrors small-data LightGBM defaults.
func DefaultConfig() Config {
	return Config{Trees: 80, MaxDepth: 4, LearningRate: 0.15, MinLeaf: 4, Lambda: 1.0}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indices into the tree's node slice
	right     int
	value     float64
}

// Tree is a single regression tree in flattened form.
type Tree struct {
	nodes []node
}

// predict returns the leaf value for x.
func (t *Tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Ensemble is a trained boosted model.
type Ensemble struct {
	Bias  float64 // initial log-odds
	LR    float64
	Trees []*Tree
	dim   int
}

// Dim returns the expected feature-vector length.
func (e *Ensemble) Dim() int { return e.dim }

// Logit returns the raw boosted score for x.
func (e *Ensemble) Logit(x []float64) float64 {
	if len(x) != e.dim {
		panic(fmt.Sprintf("gbdt: feature dim %d, model expects %d", len(x), e.dim))
	}
	s := e.Bias
	for _, t := range e.Trees {
		s += e.LR * t.predict(x)
	}
	return s
}

// Predict returns P(malware | x).
func (e *Ensemble) Predict(x []float64) float64 { return tensor.Sigmoid(e.Logit(x)) }

// Train fits an ensemble on feature matrix xs (rows) and labels ys in {0,1}.
func Train(xs [][]float64, ys []float64, cfg Config) (*Ensemble, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("gbdt: %d samples, %d labels", len(xs), len(ys))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("gbdt: sample %d has dim %d, want %d", i, len(x), dim)
		}
	}
	if cfg.Trees <= 0 || cfg.MaxDepth <= 0 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("gbdt: invalid config %+v", cfg)
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}

	// Prior log-odds.
	var pos float64
	for _, y := range ys {
		pos += y
	}
	p := math.Min(math.Max(pos/float64(len(ys)), 1e-6), 1-1e-6)
	e := &Ensemble{Bias: math.Log(p / (1 - p)), LR: cfg.LearningRate, dim: dim}

	logits := make([]float64, len(xs))
	for i := range logits {
		logits[i] = e.Bias
	}
	grad := make([]float64, len(xs)) // residuals y - p
	hess := make([]float64, len(xs)) // p(1-p)
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}

	for m := 0; m < cfg.Trees; m++ {
		for i := range xs {
			pi := tensor.Sigmoid(logits[i])
			grad[i] = ys[i] - pi
			hess[i] = math.Max(pi*(1-pi), 1e-6)
		}
		t := &Tree{}
		t.grow(xs, grad, hess, idx, 0, cfg)
		e.Trees = append(e.Trees, t)
		for i, x := range xs {
			logits[i] += cfg.LearningRate * t.predict(x)
		}
	}
	return e, nil
}

// grow recursively builds the subtree over sample indices idx and returns
// the node's index in t.nodes.
func (t *Tree) grow(xs [][]float64, grad, hess []float64, idx []int, depth int, cfg Config) int {
	var sumG, sumH float64
	for _, i := range idx {
		sumG += grad[i]
		sumH += hess[i]
	}
	leafValue := sumG / (sumH + cfg.Lambda)

	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, value: leafValue})
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return self
	}

	feat, thr, gain := bestSplit(xs, grad, hess, idx, cfg)
	if feat < 0 || gain <= 1e-12 {
		return self
	}

	var left, right []int
	for _, i := range idx {
		if xs[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return self
	}
	l := t.grow(xs, grad, hess, left, depth+1, cfg)
	r := t.grow(xs, grad, hess, right, depth+1, cfg)
	t.nodes[self] = node{feature: feat, threshold: thr, left: l, right: r}
	return self
}

// bestSplit scans every feature for the exact split maximizing the boosted
// gain (G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)).
func bestSplit(xs [][]float64, grad, hess []float64, idx []int, cfg Config) (feat int, thr, gain float64) {
	feat = -1
	dim := len(xs[idx[0]])

	var totG, totH float64
	for _, i := range idx {
		totG += grad[i]
		totH += hess[i]
	}
	parent := totG * totG / (totH + cfg.Lambda)

	type gv struct{ v, g, h float64 }
	col := make([]gv, len(idx))
	for f := 0; f < dim; f++ {
		for k, i := range idx {
			col[k] = gv{v: xs[i][f], g: grad[i], h: hess[i]}
		}
		sort.Slice(col, func(a, b int) bool { return col[a].v < col[b].v })
		var gl, hl float64
		for k := 0; k < len(col)-1; k++ {
			gl += col[k].g
			hl += col[k].h
			// A split between bit-equal feature values is unrealizable, so
			// the exact comparison is the correct duplicate test.
			//lint:ignore determinism exact duplicate detection between sorted neighbors
			if col[k].v == col[k+1].v {
				continue
			}
			if k+1 < cfg.MinLeaf || len(col)-k-1 < cfg.MinLeaf {
				continue
			}
			gr, hr := totG-gl, totH-hl
			g := gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parent
			if g > gain {
				gain = g
				feat = f
				thr = (col[k].v + col[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}
