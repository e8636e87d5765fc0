// Command perfbench is the repository's end-to-end benchmark: paper-scale
// Online_Appro tours over loopback TCP (wire.Sink and a fleet of
// wire.SensorClients, WAL on) and in process (online.RunCtx), each tour
// checked bit for bit against an in-process reference run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload wire-paper-1k --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates traced and untraced tours, prints the per-layer metrics
// and the layer accounting, and writes the spans under .bench_build/.
// The last line of standard output is the JSON result; the table before
// it goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runTimeout bounds a whole run; a wedged tour fails the run instead of
// hanging it.
const runTimeout = 170 * time.Second

// outDir holds the WALs and trace files, relative to the working
// directory.
const outDir = ".bench_build/perfbench"

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

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measurement time, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if *trace == 1 {
		tr = &tracer{t0: time.Now()}
	}
	r, err := newRunner(ctx, w, *seed, dir, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var tours []*tourStats
	res := result{Correct: true}
	resets := 0
	measure := time.Duration(*secs) * time.Second
	begin := time.Now()
	// Every run measures at least two rounds over the workload's fields,
	// however long they take, so set-up and tour times are medians of
	// several samples and a traced run traces every field.
	minTours := 2 * w.fields
	for id := 0; id < minTours || time.Since(begin) < measure; id++ {
		// A traced run alternates traced and untraced tours, so the
		// tracing overhead is measured under the same conditions.
		traced := tr != nil && id%2 == 0
		ts, err := r.tour(id, traced)
		res.Attempted += ts.attempted
		res.Failed += ts.sessionFails
		resets += ts.endResets
		for _, e := range ts.sessionErrs {
			fmt.Fprintf(os.Stderr, "perfbench: tour %d: sensor session: %v\n", id, e)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: tour %d failed: %v\n", id, err)
			res.Failed++
			res.Correct = false
			if ctx.Err() != nil {
				break
			}
			continue
		}
		tours = append(tours, ts)
	}
	if len(tours) == 0 {
		res.Correct = false
	}

	// error_rate counts the end-of-tour resets that failed leaves out.
	errorRate := float64(res.Failed+resets) / float64(max(res.Attempted, 1))
	if tr == nil {
		res.Metrics = endToEnd(tours)
	} else {
		res.Metrics = perLayer(w, tours)
		res.Metrics["error_rate"] = metric{errorRate, "ratio"}
		res.Metrics["wire.end_resets_per_tour"] = metric{float64(resets) / float64(max(len(tours), 1)), "count"}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			res.Correct = false
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
		}
	}
	printTable(w, *seed, len(tours), res, resets, errorRate)
	if tr != nil {
		printAccounting(res.Metrics)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd summarises untraced tours into the metrics a user sees.
func endToEnd(tours []*tourStats) map[string]metric {
	// Interval quantiles are taken per tour, and the run reports the
	// median tour's, so a burst of host contention during a few tours
	// does not move them.
	var p50, p90 []float64
	// Every tour of a field collects the same, gate-checked data, so the
	// run reports the mean over fields.
	fieldData := make(map[int]float64)
	for _, ts := range tours {
		intervals := millis(ts.intervals)
		p50 = append(p50, quantile(intervals, 0.5))
		p90 = append(p90, quantile(intervals, 0.9))
		fieldData[ts.field] = ts.data / 1e6
	}
	data := 0.0
	for _, d := range fieldData {
		data += d / float64(len(fieldData))
	}
	return map[string]metric{
		"tour_s":          {medianOver(tours, func(ts *tourStats) float64 { return ts.tour.Seconds() }), "s"},
		"interval_p50_ms": {median(p50), "ms"},
		"interval_p90_ms": {median(p90), "ms"},
		"setup_s":         {medianOver(tours, func(ts *tourStats) float64 { return ts.setup.Seconds() }), "s"},
		"data_mb":         {data, "Mb"},
		"cpu_s":           {medianOver(tours, func(ts *tourStats) float64 { return ts.cpu.Seconds() }), "s"},
		"alloc_mb":        {medianOver(tours, func(ts *tourStats) float64 { return float64(ts.alloc) / 1e6 }), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// perLayer summarises a traced run: per-layer numbers from the traced
// tours, and the tracing overhead against the untraced ones.
func perLayer(w workload, tours []*tourStats) map[string]metric {
	var traced, untraced []*tourStats
	for _, ts := range tours {
		if ts.traced {
			traced = append(traced, ts)
		} else {
			untraced = append(untraced, ts)
		}
	}
	per := func(f func(*tourStats) float64) float64 { return medianOver(traced, f) }
	var joins, schedules, appends []float64
	for _, ts := range traced {
		joins = append(joins, millis(ts.joins)...)
		schedules = append(schedules, millis(ts.schedules)...)
		appends = append(appends, millis(ts.wal.appends)...)
	}
	sum := func(ds []time.Duration) float64 {
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		return s.Seconds()
	}
	tourS := per(func(ts *tourStats) float64 { return ts.tour.Seconds() })
	untracedS := medianOver(untraced, func(ts *tourStats) float64 { return ts.tour.Seconds() })
	scheduleS := per(func(ts *tourStats) float64 { return sum(ts.schedules) })
	regS := per(func(ts *tourStats) float64 { return ts.reg.registration })
	fanoutS := per(func(ts *tourStats) float64 { return ts.reg.fanout })
	// The sink's self time; an in-process tour bypasses the wire layer.
	selfS := 0.0
	if w.wire {
		selfS = per(func(ts *tourStats) float64 { return ts.tour.Seconds() - sum(ts.schedules) })
	}
	share := func(x float64) float64 {
		if tourS == 0 {
			return 0
		}
		return x / tourS
	}
	return map[string]metric{
		"trace.tour_s":          {tourS, "s"},
		"trace.untraced_tour_s": {untracedS, "s"},
		"trace.overhead_s":      {tourS - untracedS, "s"},

		"core.build_s": {per(func(ts *tourStats) float64 { return ts.build.Seconds() }), "s"},

		"wire.sink_new_s":     {per(func(ts *tourStats) float64 { return ts.sinkNew.Seconds() }), "s"},
		"wire.join_s":         {per(func(ts *tourStats) float64 { return ts.join.Seconds() }), "s"},
		"wire.join_p50_ms":    {quantile(joins, 0.5), "ms"},
		"wire.join_p99_ms":    {quantile(joins, 0.99), "ms"},
		"wire.wait_sensors_s": {per(func(ts *tourStats) float64 { return ts.wait.Seconds() }), "s"},

		"online.schedule_s":      {scheduleS, "s"},
		"online.schedule_p90_ms": {quantile(schedules, 0.9), "ms"},
		"online.calls":           {per(func(ts *tourStats) float64 { return float64(len(ts.schedules)) }), "count"},
		"online.regs_per_call": {per(func(ts *tourStats) float64 {
			return float64(ts.regs) / float64(max(len(ts.schedules), 1))
		}), "count"},

		"wire.tour_self_s":            {selfS, "s"},
		"wire.registration_s":         {regS, "s"},
		"wire.fanout_stall_s":         {fanoutS, "s"},
		"wire.commit_path_s":          {per(func(ts *tourStats) float64 { return ts.reg.commitPath }), "s"},
		"wire.frames_sent":            {per(func(ts *tourStats) float64 { return ts.reg.framesSent }), "count"},
		"wire.frames_received":        {per(func(ts *tourStats) float64 { return ts.reg.framesRecv }), "count"},
		"wire.conn_kills":             {per(func(ts *tourStats) float64 { return ts.reg.connKills }), "count"},
		"wire.encode_ns_per_frame":    {per(func(ts *tourStats) float64 { return ts.codec.encodeNs }), "ns"},
		"wire.decode_ns_per_frame":    {per(func(ts *tourStats) float64 { return ts.codec.decodeNs }), "ns"},
		"wire.control_bytes_per_tour": {per(func(ts *tourStats) float64 { return ts.codec.controlBytes }), "B"},

		"wal.append_p50_ms":  {quantile(appends, 0.5), "ms"},
		"wal.append_p90_ms":  {quantile(appends, 0.9), "ms"},
		"wal.bytes_per_tour": {per(func(ts *tourStats) float64 { return ts.wal.bytes }), "B"},
		"wal.replay_s":       {per(func(ts *tourStats) float64 { return ts.wal.replay.Seconds() }), "s"},

		"proc.gc_cycles":  {per(func(ts *tourStats) float64 { return float64(ts.gcCycles) }), "count"},
		"proc.gc_pause_s": {per(func(ts *tourStats) float64 { return ts.gcPause.Seconds() }), "s"},

		"acct.layer_sum_s":        {scheduleS + selfS, "s"},
		"acct.registration_share": {share(regS), "ratio"},
		"acct.schedule_share":     {share(scheduleS), "ratio"},
		"acct.fanout_share":       {share(fanoutS), "ratio"},
		"acct.unaccounted_share":  {1 - share(regS+scheduleS+fanoutS), "ratio"},
	}
}

// medianOver reports the median of one value per tour.
func medianOver(tours []*tourStats, f func(*tourStats) float64) float64 {
	xs := make([]float64, len(tours))
	for i, ts := range tours {
		xs[i] = f(ts)
	}
	return median(xs)
}

func printTable(w workload, seed int64, tours int, res result, resets int, errorRate float64) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d: %d tours measured, correct=%v, error_rate %.6g (%d of %d operations failed, %d end-of-tour resets)\n",
		w.name, seed, tours, res.Correct, errorRate, res.Failed, res.Attempted, resets)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// printAccounting checks that the layers add up: the scheduler's time
// plus the sink's self time against the tour, and the share of the tour
// the three measured layers explain. The probe broadcast's fan-out stall
// also falls inside the registration round trip, so the shares can
// overlap by that much.
func printAccounting(m map[string]metric) {
	tour := m["trace.tour_s"].Value
	fmt.Fprintf(os.Stderr, "layer accounting (median traced tour):\n")
	fmt.Fprintf(os.Stderr, "  online.schedule_s + wire.tour_self_s = %.6f s against tour_s = %.6f s\n",
		m["acct.layer_sum_s"].Value, tour)
	fmt.Fprintf(os.Stderr, "  wire.registration_s %5.1f%%  online.schedule_s %5.1f%%  wire.fanout_stall_s %5.1f%%  unaccounted %5.1f%%\n",
		100*m["acct.registration_share"].Value, 100*m["acct.schedule_share"].Value,
		100*m["acct.fanout_share"].Value, 100*m["acct.unaccounted_share"].Value)
	fmt.Fprintf(os.Stderr, "  tracing overhead on tour_s: %+.6f s (traced %.6f s, untraced %.6f s)\n",
		m["trace.overhead_s"].Value, tour, m["trace.untraced_tour_s"].Value)
}
