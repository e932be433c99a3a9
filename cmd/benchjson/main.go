// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report, so CI can diff benchmark runs without
// scraping logs:
//
//	go test -run '^$' -bench 'Predict$' -benchmem . | go run ./cmd/benchjson -out BENCH.json
//
// Each benchmark line ("BenchmarkName-8  1814  1545457 ns/op  17120 B/op
// 8 allocs/op  12.3 custom/metric") becomes one record keyed by the
// benchmark name with the GOMAXPROCS suffix stripped. The three standard
// units get first-class fields; anything else (b.ReportMetric output) lands
// in "metrics". Non-benchmark lines pass through to stderr so failures stay
// visible in the pipeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one "Benchmark..." output line; ok is false for any
// other line (headers, PASS, ok, failures).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// checkGate enforces a speedup requirement of the form "BASE,NEW,MIN":
// the report must contain benchmarks BASE and NEW, and BASE's ns/op must
// be at least MIN times NEW's. It returns the achieved ratio.
func checkGate(rep *Report, spec string) (float64, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return 0, fmt.Errorf("gate spec %q: want BASE,NEW,MIN", spec)
	}
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || min <= 0 {
		return 0, fmt.Errorf("gate spec %q: bad minimum speedup %q", spec, parts[2])
	}
	find := func(name string) (Result, error) {
		for _, r := range rep.Benchmarks {
			if r.Name == name {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("gate: benchmark %q not in input", name)
	}
	base, err := find(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, err
	}
	next, err := find(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, err
	}
	if next.NsPerOp <= 0 {
		return 0, fmt.Errorf("gate: %s has non-positive ns/op", next.Name)
	}
	ratio := base.NsPerOp / next.NsPerOp
	if ratio < min {
		return ratio, fmt.Errorf("gate: %s is %.2fx faster than %s, need >= %.2fx",
			next.Name, ratio, base.Name, min)
	}
	return ratio, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit, so tests can drive
// it end to end.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output file (default stdout); an existing file is left untouched unless -force")
	force := fs.Bool("force", false, "overwrite an existing -out file")
	gate := fs.String("gate", "", "speedup gate 'BASE,NEW,MIN': require ns/op(BASE)/ns/op(NEW) >= MIN, exit 1 otherwise")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var rep Report
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		} else if s := strings.TrimSpace(line); s != "" {
			fmt.Fprintln(stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "benchjson: read:", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}

	if *gate != "" {
		ratio, err := checkGate(&rep, *gate)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchjson: gate %s ok (%.2fx)\n", *gate, ratio)
	}

	// Trajectory files (BENCH_<n>.json) are append-only history: a new run
	// gets a new number, never silently replaces an old one. Finding one
	// already written is the normal state of a checked-out tree, not a
	// failure.
	if *out != "" && !*force {
		if _, err := os.Stat(*out); err == nil {
			fmt.Fprintf(stderr, "benchjson: %s exists, not overwriting (pass -force to regenerate)\n", *out)
			return 0
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}
