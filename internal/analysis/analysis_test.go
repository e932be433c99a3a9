package analysis

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// loadFixtures loads the testdata module once per test binary.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load("testdata", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return pkgs
}

var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// wantExpectation is one `// want "regex"` golden comment.
type wantExpectation struct {
	re      *regexp.Regexp
	matched bool
}

// scanWants collects the golden expectations per file:line.
func scanWants(t *testing.T, pkgs []*Package) map[string][]*wantExpectation {
	t.Helper()
	wants := map[string][]*wantExpectation{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					args := wantArgRE.FindAllStringSubmatch(m[1], -1)
					if len(args) == 0 {
						t.Errorf("%s: want comment with no quoted pattern", key)
						continue
					}
					for _, a := range args {
						re, err := regexp.Compile(a[1])
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", key, a[1], err)
							continue
						}
						wants[key] = append(wants[key], &wantExpectation{re: re})
					}
				}
			}
		}
	}
	return wants
}

// TestFixtures runs every analyzer over the fixture module and checks the
// findings against the // want golden comments: every want must be hit,
// and every finding must be wanted. Each analyzer has at least one firing
// and one suppressed fixture case — a suppression that stopped working
// shows up here as an unexpected finding.
func TestFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := Run(pkgs, All())
	wants := scanWants(t, pkgs)

	for _, d := range diags {
		if strings.Contains(d.File, "badsuppress") {
			continue // asserted by TestMalformedSuppression
		}
		if strings.Contains(d.File, "stalesuppress") {
			continue // asserted by TestStaleSuppression (findings land on directive lines)
		}
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Analyzer+": "+d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want %q", key, w.re)
			}
		}
	}
}

// TestMalformedSuppression asserts that a reason-less lint:ignore
// directive suppresses nothing and is itself reported.
func TestMalformedSuppression(t *testing.T) {
	pkgs := loadFixtures(t)
	var got []Diagnostic
	for _, d := range Run(pkgs, All()) {
		if strings.Contains(d.File, "badsuppress") {
			got = append(got, d)
		}
	}
	if len(got) != 2 {
		t.Fatalf("badsuppress: got %d findings, want 2 (malformed directive + unsuppressed goroutine):\n%v", len(got), got)
	}
	if got[0].Analyzer != "lint" || !strings.Contains(got[0].Message, "malformed") {
		t.Errorf("first finding should be the malformed directive, got %s", got[0])
	}
	if got[1].Analyzer != "nakedgo" {
		t.Errorf("second finding should be the unsuppressed goroutine, got %s", got[1])
	}
}

// TestRealTreeClean is the gate the Makefile lint target codifies: the
// repo itself must be free of findings. It doubles as a smoke test that
// the loader handles the full dependency cone (stdlib included) and stays
// fast enough for CI.
func TestRealTreeClean(t *testing.T) {
	start := time.Now()
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("real tree finding: %s", d)
	}
	t.Logf("linted %d packages in %v", len(pkgs), time.Since(start))
}

// TestGatewayInScope pins the PR 7 scope extension: the gateway is a
// serving tier, so the serving-path invariants (bounded sends, context
// threading) must cover it. A refactor that drops internal/gateway from
// these lists silently un-lints the front door.
func TestGatewayInScope(t *testing.T) {
	const gw = "mpass/internal/gateway"
	if !pathWithinAny(gw, boundedQueuePackages) {
		t.Errorf("boundedqueue does not cover %s", gw)
	}
	if !pathWithinAny(gw, ctxflowPackages) {
		t.Errorf("ctxflow does not cover %s", gw)
	}
	if pathWithinAny(gw, goroutineOwners) {
		t.Errorf("nakedgo exempts %s: the gateway must use internal/parallel, not own goroutines", gw)
	}
}

// TestTenantInScope pins the PR 10 scope extension: per-tenant admission
// (internal/tenant) runs inside every request handler, so the serving-path
// invariants (bounded sends, context threading) must cover it — and it
// must not be exempt from nakedgo: the quota layer decides synchronously
// and owns no goroutines.
func TestTenantInScope(t *testing.T) {
	const tn = "mpass/internal/tenant"
	if !pathWithinAny(tn, boundedQueuePackages) {
		t.Errorf("boundedqueue does not cover %s", tn)
	}
	if !pathWithinAny(tn, ctxflowPackages) {
		t.Errorf("ctxflow does not cover %s", tn)
	}
	if pathWithinAny(tn, goroutineOwners) {
		t.Errorf("nakedgo exempts %s: the quota layer decides synchronously and owns no goroutines", tn)
	}
}

// TestEngineInScope pins the PR 8 scope extension: the engine driver layer
// derives content-addressed versions and orders the known-model ensemble,
// so the determinism analyzer must cover it. Dropping internal/engine from
// scorePackages would let wall-clock or unseeded randomness leak into
// engine versions unnoticed. The evaluation harness is covered for
// the same reason: its tables fold model scores, and a fold over a map
// would make their last bits depend on iteration order.
func TestEngineInScope(t *testing.T) {
	if !pathWithinAny("mpass/internal/engine", scorePackages) {
		t.Error("determinism does not cover mpass/internal/engine")
	}
	if !pathWithinAny("mpass/internal/eval", scorePackages) {
		t.Error("determinism does not cover mpass/internal/eval")
	}
}

// TestStaleSuppression asserts the suppression audit: the stalesuppress
// fixture carries one ordinary stale directive (nakedgo never fires
// there), one directive naming an unknown analyzer, and one stale
// directive waived by a reasoned //lint:ignore suppressions — which must
// produce exactly the first two findings and nothing for the waived pair.
func TestStaleSuppression(t *testing.T) {
	pkgs := loadFixtures(t)
	var got []Diagnostic
	for _, d := range Run(pkgs, All()) {
		if strings.Contains(d.File, "stalesuppress") {
			got = append(got, d)
		}
	}
	if len(got) != 2 {
		t.Fatalf("stalesuppress: got %d findings, want 2:\n%v", len(got), got)
	}
	for _, d := range got {
		if d.Analyzer != "suppressions" {
			t.Errorf("finding from %q, want the suppressions pseudo-analyzer: %s", d.Analyzer, d)
		}
	}
	if !strings.Contains(got[0].Message, "never fires there") {
		t.Errorf("first finding should flag the never-firing directive, got %s", got[0])
	}
	if !strings.Contains(got[1].Message, "no such analyzer") {
		t.Errorf("second finding should flag the unknown analyzer, got %s", got[1])
	}
}

// TestRecoveryVisaInScope pins the lint round 2 scope extension: the
// recovery and visa layers run under request/drain deadlines, so the
// serving-path invariants (bounded sends, context threading) must cover
// them — and neither may own naked goroutines.
func TestRecoveryVisaInScope(t *testing.T) {
	for _, pkg := range []string{"mpass/internal/recovery", "mpass/internal/visa"} {
		if !pathWithinAny(pkg, boundedQueuePackages) {
			t.Errorf("boundedqueue does not cover %s", pkg)
		}
		if !pathWithinAny(pkg, ctxflowPackages) {
			t.Errorf("ctxflow does not cover %s", pkg)
		}
		if pathWithinAny(pkg, goroutineOwners) {
			t.Errorf("nakedgo exempts %s: it must use internal/parallel, not own goroutines", pkg)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("nakedgo, zeroalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "nakedgo" || as[1].Name != "zeroalloc" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
