// Command perfbench is the repository's round benchmark. It runs one named
// round workload end to end in a single process, checks every round
// against an oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 50, "failed": 0, "metrics": {"round_p50_s": {"value": 0.58, "unit": "s"}, ...}}
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload flat-cold --seed 1 --seconds 30 --trace 0
//
// NOTES.md describes the workloads, the metrics and what is left
// unmeasured.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/dh"
)

// rig is one workload's deployment, set up once and reused by every round.
type rig interface {
	// prepare draws the next round's inputs (and drops or churn) from the
	// seed. It is not timed.
	prepare() error
	// run executes the prepared round. It is the timed interval.
	run(ctx context.Context) error
	// check runs the oracle on the last round, given the round's exact
	// X25519 agreement count. It is not timed.
	check(agreements uint64) error
	// survivors is the number of clients whose updates the round
	// aggregated.
	survivors() int
	// upDownBytes turns the round's measured client byte totals into
	// per-surviving-client upload and download.
	upDownBytes(up, down float64) (float64, float64)
	close()
}

// workloads maps each workload name to its set-up. NOTES.md records why
// each was chosen.
var workloads = map[string]func(seed uint64, m *meter) (rig, error){
	"flat-cold": func(seed uint64, m *meter) (rig, error) {
		return asRig(newFlatRig(flatParams{n: 64, threshold: 48, tolerance: 16, dim: 4096,
			bits: 20, targetVar: 100, stageDeadline: 30 * time.Second}, seed, m))
	},
	"flat-resumed": func(seed uint64, m *meter) (rig, error) {
		return asRig(newFlatRig(flatParams{n: 32, threshold: 24, tolerance: 8, dim: 65536,
			bits: 20, targetVar: 100, resumed: true, stageDeadline: 30 * time.Second}, seed, m))
	},
	"sharded-lsa": func(seed uint64, m *meter) (rig, error) {
		return asRig(newShardedRig(shardedParams{shards: 4, perShard: 32, threshold: 24,
			tolerance: 8, chunks: 4, dim: 16384, dropsPerShard: 4, bits: 20,
			targetMu: 100, scale: 4}, seed, m))
	},
}

// asRig keeps a nil concrete rig from becoming a non-nil interface.
func asRig[R rig](r R, err error) (rig, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 3

// sample is one round's measurements.
type sample struct {
	wall, cpu      float64 // seconds
	alloc, mallocs uint64
	gcs            uint32
	gcPause        float64 // seconds
	agree, gen     uint64
	survivors      int
	up, down       [maxTag]uint64
	upPer, downPer float64
}

// setUp builds the workload's rig and runs one checked warm-up round; it
// returns the rig and how long that took.
func setUp(build func(uint64, *meter) (rig, error), seed uint64, m *meter) (rig, float64, error) {
	t0 := time.Now()
	r, err := build(seed, m)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if _, err := oneRound(r, m); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up round: %w", err)
	}
	return r, time.Since(t0).Seconds(), nil
}

// oneRound prepares, runs (timed) and checks one round.
func oneRound(r rig, m *meter) (sample, error) {
	if err := r.prepare(); err != nil {
		return sample{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	up0, down0 := m.bytes()
	a0, g0 := dh.AgreeCount(), dh.GenerateCount()
	c0 := cpuTime()
	m.round.Add(1)
	sp := m.begin("round", -1, 0)
	m.roundSpan.Store(sp)

	t0 := time.Now()
	err := r.run(context.Background())
	wall := time.Since(t0)

	m.end(sp)
	m.roundSpan.Store(-1)
	c1 := cpuTime()
	a1, g1 := dh.AgreeCount(), dh.GenerateCount()
	up1, down1 := m.bytes()
	runtime.ReadMemStats(&ms1)

	s := sample{
		wall: wall.Seconds(), cpu: (c1 - c0).Seconds(),
		alloc: ms1.TotalAlloc - ms0.TotalAlloc, mallocs: ms1.Mallocs - ms0.Mallocs,
		gcs: ms1.NumGC - ms0.NumGC, gcPause: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
		agree: a1 - a0, gen: g1 - g0, survivors: r.survivors(),
	}
	var upTotal, downTotal float64
	for i := range s.up {
		s.up[i], s.down[i] = up1[i]-up0[i], down1[i]-down0[i]
		upTotal += float64(s.up[i])
		downTotal += float64(s.down[i])
	}
	s.upPer, s.downPer = r.upDownBytes(upTotal, downTotal)
	if err != nil {
		return s, err
	}
	return s, r.check(s.agree)
}

// measure runs rounds until d has passed (at least one). It stops at the
// first failed round; the failed round is the last sample.
func measure(r rig, m *meter, d time.Duration) ([]sample, error) {
	var out []sample
	stop := time.Now().Add(d)
	for len(out) == 0 || time.Now().Before(stop) {
		s, err := oneRound(r, m)
		out = append(out, s)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func pick(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(samples []sample, setups []float64, failed int) (map[string]metric, string) {
	walls := pick(samples, func(s sample) float64 { return s.wall })
	var wallSum, updates float64
	for _, s := range samples {
		wallSum += s.wall
		updates += float64(s.survivors)
	}
	tailV, tailP, tailOK := tail(walls)
	note := fmt.Sprintf("round_tail_s is p%.1f of %d rounds", tailP, len(walls))
	if !tailOK {
		note = fmt.Sprintf("round_tail_s is the maximum of %d rounds (fewer than 11)", len(walls))
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"round_p50_s":        {median(walls), "s"},
		"round_tail_s":       {tailV, "s"},
		"updates_per_s":      {updates / wallSum, "1/s"},
		"cpu_per_round_s":    {median(pick(samples, func(s sample) float64 { return s.cpu })), "s"},
		"client_up_bytes":    {median(pick(samples, func(s sample) float64 { return s.upPer })), "bytes"},
		"client_down_bytes":  {median(pick(samples, func(s sample) float64 { return s.downPer })), "bytes"},
		"alloc_mb_per_round": {median(pick(samples, func(s sample) float64 { return float64(s.alloc) / (1 << 20) })), "MB"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"round_ok_ratio":     {float64(len(samples)-failed) / float64(len(samples)), "ratio"},
	}, note
}

// perLayer computes the per-layer metrics of a traced run from its traced
// rounds, the meter's spans and events, and the CPU profile.
func perLayer(spans []span, events []event, traced []sample, untracedP50 float64, prof []byte) (map[string]metric, error) {
	out := map[string]metric{}
	for _, st := range stageNames {
		vals := pick(traced, func(s sample) float64 {
			return float64(s.up[st.tag]+s.down[st.tag]) / float64(s.survivors)
		})
		out["transport.bytes."+st.name] = metric{median(vals), "bytes"}
	}
	for k, v := range layerMetrics(spans, events) {
		out[k] = metric{v, "s"}
	}
	out["dh.agreements_per_round"] = metric{median(pick(traced, func(s sample) float64 { return float64(s.agree) })), "count"}
	out["dh.generations_per_round"] = metric{median(pick(traced, func(s sample) float64 { return float64(s.gen) })), "count"}
	out["runtime.allocs_per_round"] = metric{median(pick(traced, func(s sample) float64 { return float64(s.mallocs) })), "count"}
	out["runtime.gc_cycles_per_round"] = metric{mean(pick(traced, func(s sample) float64 { return float64(s.gcs) })), "count"}
	out["runtime.gc_pause_s_per_round"] = metric{mean(pick(traced, func(s sample) float64 { return s.gcPause })), "s"}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		out["cpu."+l] = metric{v, "share"}
	}
	out["trace.overhead"] = metric{median(pick(traced, func(s sample) float64 { return s.wall })) / untracedP50, "ratio"}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: flat-cold, flat-resumed or sharded-lsa")
	seed := flag.Uint64("seed", 1, "seed for inputs, drops and churn")
	seconds := flag.Float64("seconds", 30, "seconds of timed rounds")
	traceOn := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	build, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d %s\n", *workload, *seed, *seconds, *traceOn, stamp())

	m := newMeter()
	var r rig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		var d float64
		var err error
		if r, d, err = setUp(build, *seed, m); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		setups = append(setups, d)
	}
	defer r.close()

	d := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	var runErr error
	var note string
	if *traceOn == 0 {
		samples, err := measure(r, m, d)
		runErr = err
		res.Attempted = len(samples)
		if err != nil {
			res.Failed = 1
		}
		res.Metrics, note = endToEnd(samples, setups, res.Failed)
	} else {
		// The first half runs untraced, the second traced with the CPU
		// profile on; trace.overhead compares their median round times.
		plain, err := measure(r, m, d/2)
		res.Attempted = len(plain)
		var traced []sample
		var prof bytes.Buffer
		if err == nil {
			m.tracing.Store(true)
			if err = pprof.StartCPUProfile(&prof); err == nil {
				traced, err = measure(r, m, d/2)
				pprof.StopCPUProfile()
			}
			m.tracing.Store(false)
			res.Attempted += len(traced)
		}
		runErr = err
		if err != nil {
			res.Failed = 1
		} else {
			spans, events := m.snapshot()
			path := filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
			if werr := writeSpans(spans, path); werr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", werr)
			} else {
				note = fmt.Sprintf("%d spans written to %s", len(spans), path)
			}
			var lerr error
			res.Metrics, lerr = perLayer(spans, events, traced, median(pick(plain, func(s sample) float64 { return s.wall })), prof.Bytes())
			if lerr != nil {
				runErr = lerr
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: round %d failed: %v\n", *workload, res.Attempted, runErr)
	}
	res.Correct = runErr == nil

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if note != "" {
		fmt.Printf("# %s\n", note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		r.close()
		os.Exit(1)
	}
}
