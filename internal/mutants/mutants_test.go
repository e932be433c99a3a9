//go:build mutants

package mutants

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// table is the mutant table. Every row puts back a bug shape that a gate
// outside internal/analysis must reject; the first four groups stand in for
// the dataflow lint rules (snapshotonce, versionkey, failclosed, mutexguard)
// that these gates replaced.
var table = []mutant{
	// One generation per response: the scan response names the set that
	// scored it, not whatever is current by the time it is rendered.
	{
		File: "internal/server/server.go",
		Old:  `ModelVersion: out.set.Version(),`,
		New:  `ModelVersion: s.snap().Version(),`,
		Gate: `go test -run '^TestScanReportsTheSetThatScored$' ./internal/server`,
	},
	{
		File: "internal/server/server.go",
		Old:  `for i, name := range out.set.Names() {`,
		New:  `for i, name := range s.snap().Names() {`,
		Gate: `go test -run '^TestScanReportsTheSetThatScored$' ./internal/server`,
	},
	{
		File: "internal/server/stream.go",
		Old:  `ModelVersion: ms.Version(),`,
		New:  `ModelVersion: s.snap().Version(),`,
		Gate: `go test -run '^TestScanReportsTheSetThatScored$' ./internal/server`,
	},

	// Score-cache keys pair the set version with the content hash.
	{
		File: "internal/server/server.go",
		Old:  `s.cache.put(scoreKey{version: out.set.Version(), sum: sum}, out)`,
		New:  `s.cache.put(scoreKey{version: "", sum: sum}, out)`,
		Gate: `go test -run '^TestScanEndpointParityAndCache$' ./internal/server`,
	},
	{
		File: "internal/server/stream.go",
		Old:  `s.cache.put(scoreKey{version: ms.Version(), sum: sum}, out)`,
		New:  `s.cache.put(scoreKey{version: "", sum: sum}, out)`,
		Gate: `go test -run '^TestScanStreamMatchesBuffered$' ./internal/server`,
	},
	{
		// A version-blind cache: lookup and insert both drop the version.
		File: "internal/server/server.go",
		Old: `	if out, ok := s.cache.get(scoreKey{version: ms.Version(), sum: sum}); ok {
		s.metrics.CacheHits.Add(1)
		return out, sum, true, nil
	}
	s.metrics.CacheMisses.Add(1)
	out, err := s.batcher.Score(ctx, raw)
	if err != nil {
		return scanOut{}, sum, false, err
	}
	// File the entry under the generation that actually scored it: if a
	// reload lands between the lookup above and here, the result keys under
	// the old version — which no lookup will ever hit again — instead of
	// poisoning the new generation's segment.
	s.cache.put(scoreKey{version: out.set.Version(), sum: sum}, out)`,
		New: `	if out, ok := s.cache.get(scoreKey{sum: sum}); ok {
		s.metrics.CacheHits.Add(1)
		return out, sum, true, nil
	}
	s.metrics.CacheMisses.Add(1)
	out, err := s.batcher.Score(ctx, raw)
	if err != nil {
		return scanOut{}, sum, false, err
	}
	s.cache.put(scoreKey{sum: sum}, out)`,
		Gate: `go test -run '^TestScanAfterSwapMissesOldGeneration$' ./internal/server`,
	},

	// A failed scan fails closed: no verdict in the response, nothing in the
	// cache.
	{
		// The response is rendered by a helper and written before the err
		// check, so a timed-out scan answers 200 with an empty verdict.
		File: "internal/server/server.go",
		Old: `	if err != nil {
		s.scanError(w, err)
		return
	}
	resp := scanResponse{
		SHA256:       hex.EncodeToString(key[:]),
		Size:         len(raw),
		Cached:       cached,
		ModelVersion: out.set.Version(),
	}
	for i, name := range out.set.Names() {
		resp.Results = append(resp.Results, scanModelResult{
			Model: name, Score: out.Scores[i], Malicious: out.Labels[i],
		})
		resp.Malicious = resp.Malicious || out.Labels[i]
	}
	writeJSON(w, http.StatusOK, resp)
}`,
		New: `	writeJSON(w, http.StatusOK, newScanResponse(ms, out, key, len(raw), cached))
	if err != nil {
		s.scanError(w, err)
		return
	}
}

func newScanResponse(ms *engine.Set, out scanOut, key [32]byte, size int, cached bool) scanResponse {
	resp := scanResponse{
		SHA256:       hex.EncodeToString(key[:]),
		Size:         size,
		Cached:       cached,
		ModelVersion: ms.Version(),
	}
	names := ms.Names()
	for i := range out.Scores {
		resp.Results = append(resp.Results, scanModelResult{
			Model: names[i], Score: out.Scores[i], Malicious: out.Labels[i],
		})
		resp.Malicious = resp.Malicious || out.Labels[i]
	}
	return resp
}`,
		Gate: `go test -run '^TestScanErrorFailsClosed$' ./internal/server`,
	},
	{
		// The result is cached before its error is checked.
		File: "internal/server/server.go",
		Old: `	out, err := s.batcher.Score(ctx, raw)
	if err != nil {`,
		New: `	out, err := s.batcher.Score(ctx, raw)
	s.cache.put(scoreKey{version: ms.Version(), sum: sum}, out)
	if err != nil {`,
		Gate: `go test -run '^TestScanErrorFailsClosed$' ./internal/server`,
	},

	// Guarded fields are touched only under their mutex.
	{
		File: "internal/server/cache.go",
		Old: `	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]`,
		New:  `	el, ok := c.items[key]`,
		Gate: `go test -race -run '^TestScoreCacheConcurrentAccess$' ./internal/server`,
	},
	{
		File: "internal/server/jobs.go",
		Old: `	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	if j, ok := h.reg.jobs[h.id]; ok {`,
		New:  `	if j, ok := h.reg.jobs[h.id]; ok {`,
		Gate: `go test -race -run '^TestJobRegistryBoundedUnderChurn$' ./internal/server`,
	},

	// An oracle query is scored by its target engine alone.
	{
		// A query falls on engine 0.
		File: "internal/server/batcher.go",
		Old:  `if r.target == "" || r.target == names[di] {`,
		New:  `if r.target == "" || names[di] == names[0] {`,
		Gate: `go test -run '^TestOracleAcrossReloads$' ./internal/server`,
	},
	{
		// A query scores every engine.
		File: "internal/server/batcher.go",
		Old:  `if r.target == "" || r.target == names[di] {`,
		New:  `if r.target == "" || names[di] != "" {`,
		Gate: `go test -run '^TestOracleQueriesScoreOnlyTheirTarget$' ./internal/server`,
	},

	// A streamed 413/400 reject counts in no scan ledger: the ledger ticks
	// before the body read.
	{
		File: "internal/server/stream.go",
		Old: `	var total int64
	for {
		n, err := body.Read(buf)
		if n > 0 {
			total += int64(n)
			hasher.Write(buf[:n])
			for _, st := range streams {
				st.Feed(buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			} else {
				writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			}
			return
		}
	}
	if total == 0 {
		writeError(w, http.StatusBadRequest, "empty body; POST the PE bytes")
		return
	}
	// Counted only now, as on the buffered path: 400/413 rejects appear in
	// neither ledger.
	s.metrics.ScanRequests.Add(1)
	if grant != nil {
		grant.CountScan()
	}`,
		New: `	var total int64
	s.metrics.ScanRequests.Add(1)
	if grant != nil {
		grant.CountScan()
	}
	for {
		n, err := body.Read(buf)
		if n > 0 {
			total += int64(n)
			hasher.Write(buf[:n])
			for _, st := range streams {
				st.Feed(buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			} else {
				writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			}
			return
		}
	}
	if total == 0 {
		writeError(w, http.StatusBadRequest, "empty body; POST the PE bytes")
		return
	}`,
		Gate: `go test -run '^TestScanStreamTooLarge$' ./internal/server`,
	},

	// The PEM ranking folds its float ratios in model order, not map order.
	{
		File: "internal/eval/ablations.go",
		Old: `	for _, m := range models {
		if ranked := res.PerModel[m.Name()]; len(ranked) >= 3 && ranked[2].Value > 1e-9 {`,
		New: `	for _, ranked := range res.PerModel {
		if len(ranked) >= 3 && ranked[2].Value > 1e-9 {`,
		Gate: `go run ./cmd/mpass-lint -run determinism ./internal/eval`,
	},

	// A registry swap hands back the generation it replaced, so every set
	// leaves the registry exactly once.
	{
		File: "internal/engine/engine.go",
		Old:  `return r.cur.Swap(next), nil`,
		New: `r.cur.Store(next)
	return next, nil`,
		Gate: `go test -run '^TestRegistrySwapIsolation$' ./internal/engine`,
	},

	// A negative drill's scenario must decode: a decode error also exits
	// non-zero, so it would pass for the expected gate failure.
	{
		File: "scenarios/auth-anonymous.json",
		Old:  `"requests": 4`,
		New:  `"request": 4`,
		Gate: `go test -run '^TestScenarioFilesParse$' ./cmd/mpass-load`,
	},
}

// TestMutants applies each row to a fresh copy of the tree and runs the
// row's gate there, which must fail: a go test gate with a failing test, a
// lint gate with a finding from its analyzer. A gate that passes, or fails
// for another reason (the mutant does not build), fails the row. The gates
// run with -trimpath, so every copy shares the build cache.
func TestMutants(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files := treeFiles(t, root)
	goflags := strings.TrimSpace(os.Getenv("GOFLAGS") + " -trimpath")
	for i, m := range table {
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, root, dir, files)
			path := filepath.Join(dir, m.File)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := apply(string(src), m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}

			args := strings.Fields(strings.ReplaceAll(m.Gate, "'", ""))
			cmd := exec.Command(args[0], args[1:]...)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS="+goflags)
			out, err := cmd.CombinedOutput()
			// A test gate must fail a test (or crash or race inside one), not
			// its build; a lint gate must report its analyzer's finding.
			marks := []string{"--- FAIL", "WARNING: DATA RACE", "panic: ", "fatal error: "}
			if args[1] == "run" {
				marks = []string{": " + args[len(args)-2] + ": "}
			}
			var exit *exec.ExitError
			if err == nil {
				t.Fatalf("%v survived: `%s` passed", m, m.Gate)
			}
			if !errors.As(err, &exit) {
				t.Fatalf("%v: running `%s`: %v", m, m.Gate, err)
			}
			for _, line := range strings.Split(string(out), "\n") {
				for _, mark := range marks {
					if strings.Contains(line, mark) {
						t.Logf("%v: caught: %s", m, strings.TrimSpace(line))
						return
					}
				}
			}
			t.Errorf("%v: `%s` failed without any of %q in its output:\n%s", m, m.Gate, marks, out)
		})
	}
}

// treeFiles lists the files git would commit: tracked ones plus untracked
// ones that are not ignored.
func treeFiles(t *testing.T, root string) []string {
	out, err := exec.Command("git", "-C", root, "ls-files", "-z",
		"--cached", "--others", "--exclude-standard").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	return strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
}

// copyTree copies files from one tree to another, skipping tracked files
// deleted from the working tree.
func copyTree(t *testing.T, from, to string, files []string) {
	for _, f := range files {
		src := filepath.Join(from, f)
		info, err := os.Stat(src)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(to, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, info.Mode().Perm()); err != nil {
			t.Fatal(err)
		}
	}
}
