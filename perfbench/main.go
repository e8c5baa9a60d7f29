// Command perfbench is the repository's serving benchmark. It runs one
// named workload against an in-process rtmap-serve node (or, for the
// routed workload, an rtmap-router in front of two nodes), checks every
// reply bit for bit against the software integer reference, and prints
// a result envelope followed, on the last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// tracing; with -trace 1 they are the per-layer ones, from a traced run
// and from timed calls into each layer's public functions.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload tinycnn-single --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"rtmap/internal/core"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the request payloads")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// reading is one printed metric.
type reading struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Feeds names the end-to-end metric a per-layer metric moves.
	Feeds string `json:"feeds,omitempty"`
	// Note qualifies the value, e.g. the percentile a tail is read at.
	Note string `json:"note,omitempty"`
}

type envelope struct {
	Command    []string  `json:"command"`
	Revision   string    `json:"git_revision"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	Workload   string    `json:"workload"`
	Why        string    `json:"why"`
	Model      string    `json:"model"`
	Batch      int       `json:"samples_per_request"`
	Callers    int       `json:"closed_loop_callers"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"run_seconds"`
	Traced     bool      `json:"traced"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Refused    int       `json:"refused"`
	Mismatched int       `json:"mismatched"`
	ErrorShare float64   `json:"error_share"`
	Readings   []reading `json:"metrics"`
	FirstError string    `json:"first_error,omitempty"`
}

// measured is what one run reports.
type measured struct {
	tally
	readings []reading
	firstErr error // of the first request that failed or mismatched
}

type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func run(name string, seed uint64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	f, err := newFixture(w, seed)
	if err != nil {
		return err
	}
	d := time.Duration(seconds) * time.Second
	measure := endToEnd
	if traced {
		measure = layers
	}
	m, err := measure(f, d)
	if err != nil {
		return err
	}
	t := m.tally
	env := envelope{
		Command: os.Args, Revision: revision(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Workload: w.name, Why: w.why, Model: w.model, Batch: w.batch, Callers: w.callers,
		Seed: seed, Seconds: seconds, Traced: traced,
		Attempted: t.attempted, Failed: t.failed, Refused: t.refused, Mismatched: t.mismatched,
		ErrorShare: t.errorShare(), Readings: m.readings,
	}
	if m.firstErr != nil {
		env.FirstError = m.firstErr.Error()
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))

	res := result{Correct: t.mismatched == 0, Attempted: t.attempted, Failed: t.bad(), Metrics: map[string]json.RawMessage{}}
	for _, r := range m.readings {
		v, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{r.Value, r.Unit})
		if err != nil {
			return err
		}
		res.Metrics[r.Name] = v
	}
	if out, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd measures the seven user-visible metrics without tracing.
func endToEnd(f *fixture, d time.Duration) (*measured, error) {
	w := f.w
	setups := make([]float64, w.setups)
	var s *stack
	for i := range setups {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, setups[i], err = setUp(f, 0); err != nil {
			return nil, err
		}
	}
	c := newClient(s.url, w.callers)
	warm(c, f)
	win := c.drive(f, w.callers, d, "", nil)
	c.close()
	if err := s.close(); err != nil {
		return nil, err
	}
	if win.samples == 0 {
		return nil, fmt.Errorf("no request succeeded: %w", win.firstErr)
	}
	p := w.tailPct
	rate, p50, tailMS, k := windowed(win.reqs, p)
	n := len(win.reqs)
	perWindow := fmt.Sprintf("median over %d windows of %d requests", k, n/k)
	rs := []reading{
		{Name: "infer_per_s", Value: rate, Unit: "1/s", Samples: win.samples, Note: perWindow},
		{Name: "latency_p50_ms", Value: p50, Unit: "ms", Samples: n, Note: perWindow},
		{Name: "latency_tail_ms", Value: tailMS, Unit: "ms", Samples: n,
			Note: fmt.Sprintf("p%g, %d samples beyond it in each of the %d windows", p, beyond(n/k, p), k)},
		{Name: "ok_share", Value: 1 - win.errorShare(), Unit: "share", Samples: win.attempted,
			Note: "1 - error_share"},
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups),
			Note: "median of cold set-ups, each from server construction to the first correct reply"},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Samples: 1},
		{Name: "sim_energy_uj_per_infer", Value: roundSig(win.energyPerInferPJ()/1e6, 10),
			Unit: "uJ", Samples: win.samples},
	}
	return &measured{tally: win.tally, readings: rs, firstErr: win.firstErr}, nil
}

// setUp starts a stack on an empty artifact cache and times it up to
// the first correct reply for every model variant.
func setUp(f *fixture, traceBuf int) (*stack, float64, error) {
	core.SharedCache.Reset()
	runtime.GC()
	t0 := time.Now()
	s, err := startStack(f.w, traceBuf)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.url, 1)
	defer c.close()
	for _, b := range f.bodies[:len(f.w.variants)] {
		if err := c.firstCorrect(b); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("first reply: %w", err), s.close())
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

// warm sends each caller's first few requests untimed, so connections
// are open and the batcher's service-time estimate has samples.
func warm(c *client, f *fixture) {
	c.drive(f, f.w.callers, time.Second, "", nil)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // kilobytes on Linux
}

// roundSig rounds x to n significant digits. The energy figure is a sum
// of per-sample shares whose last bits depend on the order batches
// completed in; rounding keeps the deterministic part.
func roundSig(x float64, n int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', n, 64), 64)
	return v
}

// revision is the git revision the binary was built from, when the
// build could see one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}
