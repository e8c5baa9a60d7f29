// Command rtmap-trace analyzes the serving stack's request traces: it
// reads spans from a JSONL sink (rtmap-serve -trace-out) or scrapes a
// running server's /debug/traces, and prints per-model span breakdowns,
// a p50/p95/p99 table per phase, and critical-path analysis for
// pipeline-sharded requests (which stage bottlenecks, and how much of
// the HTTP wall time the traced phases account for).
//
//	rtmap-trace -in spans.jsonl
//	rtmap-trace -url http://127.0.0.1:8080 -model tinycnn
//	rtmap-trace -in spans.jsonl -trace 4f1c9a2d03b7e865   # one request, chronological
//	rtmap-trace -in spans.jsonl -json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"

	"rtmap/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-trace: ")
	var (
		in      = flag.String("in", "", "read spans from a JSONL file (rtmap-serve -trace-out)")
		url     = flag.String("url", "", "scrape spans from a running server's /debug/traces")
		modelF  = flag.String("model", "", "restrict the analysis to one model")
		traceF  = flag.String("trace", "", "print one trace's spans chronologically instead of aggregating")
		jsonOut = flag.Bool("json", false, "emit the analysis as JSON")
	)
	flag.Parse()
	if (*in == "") == (*url == "") {
		log.Fatal("exactly one of -in or -url is required")
	}

	var spans []trace.Span
	var err error
	if *in != "" {
		spans, err = readJSONL(*in)
	} else {
		spans, err = scrape(*url)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *modelF != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Model == *modelF {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	if len(spans) == 0 {
		log.Fatal("no spans after filters")
	}

	if *traceF != "" {
		printTrace(spans, *traceF, *jsonOut)
		return
	}

	a := analyze(spans)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			log.Fatal(err)
		}
		return
	}
	printAnalysis(a)
}

// readJSONL decodes one span per line, skipping blank lines.
func readJSONL(path string) ([]trace.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []trace.Span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sp trace.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return spans, nil
}

// scrape pulls the span ring buffer from /debug/traces.
func scrape(baseURL string) ([]trace.Span, error) {
	resp, err := http.Get(baseURL + "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/traces: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Spans   []trace.Span `json:"spans"`
		Total   uint64       `json:"total_recorded"`
		Dropped uint64       `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	if body.Dropped > 0 {
		log.Printf("note: ring buffer dropped %d of %d spans (raise rtmap-serve -trace-buf or use -trace-out)",
			body.Dropped, body.Total)
	}
	return body.Spans, nil
}

// printTrace lists one request's spans in start order.
func printTrace(spans []trace.Span, id string, jsonOut bool) {
	var got []trace.Span
	for _, sp := range spans {
		if sp.TraceID == id {
			got = append(got, sp)
		}
	}
	if len(got) == 0 {
		log.Fatalf("trace %q not found", id)
	}
	sort.SliceStable(got, func(i, j int) bool { return got[i].Start < got[j].Start })
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			log.Fatal(err)
		}
		return
	}
	t0 := got[0].Start
	fmt.Printf("trace %s (%s): %d spans\n", id, got[0].Model, len(got))
	for _, sp := range got {
		where := ""
		if sp.Device >= 0 {
			where = fmt.Sprintf(" dev=%d", sp.Device)
		}
		if sp.Stage >= 0 {
			where += fmt.Sprintf(" stage=%d", sp.Stage)
		}
		if sp.Detail != "" {
			where += " " + sp.Detail
		}
		fmt.Printf("  +%8.3fms %-8s %8.3fms%s\n",
			float64(sp.Start-t0)/1e6, sp.Name, float64(sp.Dur)/1e6, where)
	}
}

// phaseStat is the aggregated view of one span kind (phase) within one
// model: occurrence count and duration percentiles in milliseconds.
type phaseStat struct {
	Phase  string  `json:"phase"`
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// stageStat aggregates one pipeline stage across traces.
type stageStat struct {
	Stage      int     `json:"stage"`
	Count      int     `json:"count"`
	MeanMS     float64 `json:"mean_ms"`
	Bottleneck bool    `json:"bottleneck"`
}

// modelAnalysis is one model's breakdown.
type modelAnalysis struct {
	Model  string      `json:"model"`
	Traces int         `json:"traces"`
	Phases []phaseStat `json:"phases"`
	// Stages is present for pipeline-sharded traffic; CoveredFrac is the
	// mean fraction of a traced request's http wall time that its
	// wait+queue+stage+hop spans account for (the critical path).
	Stages      []stageStat `json:"stages,omitempty"`
	HopMeanMS   float64     `json:"hop_mean_ms,omitempty"`
	CoveredFrac float64     `json:"covered_frac,omitempty"`
}

type analysis struct {
	Spans  int             `json:"spans"`
	Traces int             `json:"traces"`
	Models []modelAnalysis `json:"models"`
}

func stats(name string, durs []float64) phaseStat {
	sort.Float64s(durs)
	sum := 0.0
	for _, d := range durs {
		sum += d
	}
	mean := 0.0
	if len(durs) > 0 {
		mean = sum / float64(len(durs))
	}
	return phaseStat{
		Phase: name, Count: len(durs), MeanMS: mean,
		P50MS: trace.Percentile(durs, 0.50), P95MS: trace.Percentile(durs, 0.95), P99MS: trace.Percentile(durs, 0.99),
	}
}

// phaseOrder fixes the display order of the span taxonomy.
var phaseOrder = []string{"http", "wait", "queue", "hop", "exec", "stage", "layer", "requeue", "shed", "expired"}

func analyze(spans []trace.Span) analysis {
	byModel := map[string]map[string][]float64{} // model -> phase -> ms
	stageDur := map[string]map[int][]float64{}   // model -> stage -> ms
	traces := map[string]bool{}
	tracesByModel := map[string]map[string]bool{}
	// Per-trace critical-path accounting (sharded models): traced phase
	// time vs the trace's http wall.
	httpByTrace := map[string]float64{}
	pathByTrace := map[string]float64{}
	hopByModel := map[string][]float64{}
	modelOfTrace := map[string]string{}

	for _, sp := range spans {
		traces[sp.TraceID] = true
		if sp.Model != "" {
			modelOfTrace[sp.TraceID] = sp.Model
		}
		m := sp.Model
		if byModel[m] == nil {
			byModel[m] = map[string][]float64{}
			tracesByModel[m] = map[string]bool{}
		}
		tracesByModel[m][sp.TraceID] = true
		ms := float64(sp.Dur) / 1e6
		byModel[m][sp.Name] = append(byModel[m][sp.Name], ms)
		switch sp.Name {
		case "http":
			httpByTrace[sp.TraceID] += ms
		case "wait", "queue", "exec":
			pathByTrace[sp.TraceID] += ms
		case "stage":
			pathByTrace[sp.TraceID] += ms
			if stageDur[m] == nil {
				stageDur[m] = map[int][]float64{}
			}
			stageDur[m][sp.Stage] = append(stageDur[m][sp.Stage], ms)
		case "hop":
			pathByTrace[sp.TraceID] += ms
			hopByModel[m] = append(hopByModel[m], ms)
		}
	}

	a := analysis{Spans: len(spans), Traces: len(traces)}
	models := make([]string, 0, len(byModel))
	for m := range byModel {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		ma := modelAnalysis{Model: m, Traces: len(tracesByModel[m])}
		for _, name := range phaseOrder {
			if durs, ok := byModel[m][name]; ok {
				ma.Phases = append(ma.Phases, stats(name, durs))
			}
		}
		if sd := stageDur[m]; len(sd) > 0 {
			idxs := make([]int, 0, len(sd))
			for s := range sd {
				idxs = append(idxs, s)
			}
			sort.Ints(idxs)
			worst, worstMean := -1, -1.0
			for _, s := range idxs {
				st := stats("", sd[s])
				ma.Stages = append(ma.Stages, stageStat{Stage: s, Count: st.Count, MeanMS: st.MeanMS})
				if st.MeanMS > worstMean {
					worst, worstMean = len(ma.Stages)-1, st.MeanMS
				}
			}
			if worst >= 0 {
				ma.Stages[worst].Bottleneck = true
			}
			ma.HopMeanMS = stats("", hopByModel[m]).MeanMS
			// Coverage: per trace of this model, traced-path time over
			// http wall, averaged (traces whose http span was dropped by
			// the ring are skipped).
			var frac float64
			n := 0
			for id := range tracesByModel[m] {
				if modelOfTrace[id] != m || httpByTrace[id] <= 0 {
					continue
				}
				frac += math.Min(1, pathByTrace[id]/httpByTrace[id])
				n++
			}
			if n > 0 {
				ma.CoveredFrac = frac / float64(n)
			}
		}
		a.Models = append(a.Models, ma)
	}
	return a
}

func printAnalysis(a analysis) {
	fmt.Printf("%d spans across %d traces\n", a.Spans, a.Traces)
	for _, m := range a.Models {
		name := m.Model
		if name == "" {
			name = "(no model)"
		}
		fmt.Printf("\nmodel %s: %d traces\n", name, m.Traces)
		fmt.Printf("  %-8s %7s %9s %9s %9s %9s\n", "phase", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms")
		for _, p := range m.Phases {
			fmt.Printf("  %-8s %7d %9.3f %9.3f %9.3f %9.3f\n",
				p.Phase, p.Count, p.MeanMS, p.P50MS, p.P95MS, p.P99MS)
		}
		if len(m.Stages) > 0 {
			fmt.Printf("  pipeline critical path (%d stages):\n", len(m.Stages))
			for _, s := range m.Stages {
				mark := ""
				if s.Bottleneck {
					mark = "  <- bottleneck"
				}
				fmt.Printf("    stage %d: mean %.3f ms over %d batches%s\n", s.Stage, s.MeanMS, s.Count, mark)
			}
			fmt.Printf("    hops: mean %.3f ms\n", m.HopMeanMS)
			if m.CoveredFrac > 0 {
				fmt.Printf("    traced phases cover %.0f%% of http wall (mean)\n", 100*m.CoveredFrac)
			}
		}
	}
}
