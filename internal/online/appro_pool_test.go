package online

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/gap"
	"mobisink/internal/knapsack"
	"mobisink/internal/radio"
)

// intervalOf returns the j-th probe interval of the tour.
func intervalOf(inst *core.Instance, j int) Interval {
	start := j * inst.Gamma
	end := start + inst.Gamma - 1
	if end >= inst.T {
		end = inst.T - 1
	}
	return Interval{Index: j, Start: start, End: end}
}

// intervalRegs registers every stride-th sensor whose window meets iv,
// with its window clipped to iv, frac of its tour budget, and dataLeft
// bits queued.
func intervalRegs(inst *core.Instance, iv Interval, stride int, frac, dataLeft float64) []Registration {
	var regs []Registration
	seen := 0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 || s.End < iv.Start || s.Start > iv.End {
			continue
		}
		seen++
		if (seen-1)%stride != 0 {
			continue
		}
		regs = append(regs, Registration{
			Sensor: i, Budget: frac * s.Budget, DataLeft: dataLeft,
			ClipStart: max(s.Start, iv.Start), ClipEnd: min(s.End, iv.End),
		})
	}
	return regs
}

// emptyRegs registers up to n sensors whose window ended before iv, as
// sensors still in range at the probe do: their clipped window is empty
// (ClipStart > ClipEnd), so their bins carry no entries.
func emptyRegs(inst *core.Instance, iv Interval, n int) []Registration {
	var regs []Registration
	for i := range inst.Sensors {
		if len(regs) == n {
			break
		}
		if s := &inst.Sensors[i]; s.Start >= 0 && s.End < iv.Start {
			regs = append(regs, Registration{
				Sensor: i, Budget: s.Budget, DataLeft: math.Inf(1),
				ClipStart: iv.Start, ClipEnd: s.End,
			})
		}
	}
	return regs
}

// referenceApproSchedule is Appro.Schedule built the straightforward way:
// a fresh gap.Instance per call whose bins grow their own entry slices.
// The pooled flat build must hand the solver byte-identical entries.
func referenceApproSchedule(ctx context.Context, opts core.Options, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	order := make([]int, len(regs))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(x, y int) bool {
		rx, ry := regs[order[x]], regs[order[y]]
		if rx.ClipStart != ry.ClipStart {
			return rx.ClipStart < ry.ClipStart
		}
		if rx.ClipEnd != ry.ClipEnd {
			return rx.ClipEnd < ry.ClipEnd
		}
		return rx.Sensor < ry.Sensor
	})
	g := &gap.Instance{NumItems: iv.End - iv.Start + 1, Bins: make([]gap.Bin, len(order))}
	for b, k := range order {
		r := regs[k]
		s := &inst.Sensors[r.Sensor]
		bin := gap.Bin{Capacity: r.Budget}
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			rate, pw := s.RateAt(j), s.PowerAt(j)
			if rate <= 0 || pw <= 0 {
				continue
			}
			bin.Entries = append(bin.Entries, gap.Entry{
				Item: j - iv.Start, Profit: rate * inst.Tau, Weight: pw * inst.Tau,
			})
		}
		g.Bins[b] = bin
	}
	asg, err := gap.LocalRatioCtx(ctx, g, opts.SolverCtx(inst))
	if err != nil {
		return nil, err
	}
	assign := make(map[int]int)
	for item, b := range asg.ItemBin {
		if b >= 0 {
			assign[item+iv.Start] = regs[order[b]].Sensor
		}
	}
	return assign, nil
}

// TestApproPoolReuseParity drives back-to-back intervals through one
// Appro — growing, shrinking, and one solve cancelled mid-sweep — and
// checks every assignment against a fresh-buffer reference: no entry of
// an earlier interval may leak into a later one, and no earlier result may
// change once later intervals reuse the pooled buffers.
func TestApproPoolReuseParity(t *testing.T) {
	inst := paperInstance(t, 1500, 31, radio.Paper2013(), 5, 1)
	steps := []struct {
		interval, stride int
		empty            int // extra registrants whose clipped window is empty
		cancelAfter      int // > 0: cancel the ctx inside this many'th knapsack call
	}{
		{interval: 3, stride: 4},
		{interval: 10, stride: 1},            // grow
		{interval: 11, stride: 8, empty: 40}, // shrink; bins with no entries
		{interval: 20, stride: 1, cancelAfter: 3},
		{interval: 21, stride: 16, empty: 60},
		{interval: 22, stride: 2},
		{interval: 30, stride: 1},
		{interval: 31, stride: 32, empty: 80},
	}
	type kept struct {
		label     string
		got, want map[int]int
	}
	var done []kept
	for n, st := range steps {
		iv := intervalOf(inst, st.interval)
		regs := intervalRegs(inst, iv, st.stride, 0.5, math.Inf(1))
		regs = append(regs, emptyRegs(inst, iv, st.empty)...)
		label := fmt.Sprintf("step %d (interval %d, %d registrants)", n, st.interval, len(regs))
		if st.cancelAfter > 0 {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			oracle := func(items []knapsack.Item, c float64) knapsack.Solution {
				if calls++; calls == st.cancelAfter {
					cancel()
				}
				return knapsack.DP(items, c, 0.01)
			}
			_, err := (&Appro{Opts: core.Options{Knapsack: oracle}}).Schedule(ctx, inst, iv, regs)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", label, err)
			}
			if calls != st.cancelAfter || calls >= len(regs) {
				t.Fatalf("%s: %d knapsack calls, want a cancel mid-sweep after %d", label, calls, st.cancelAfter)
			}
			continue
		}
		got, err := (&Appro{}).Schedule(context.Background(), inst, iv, regs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := referenceApproSchedule(context.Background(), core.Options{}, inst, iv, regs)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference assigns nothing; the step tests nothing", label)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: pooled assignment differs from fresh-buffer reference\n got  %v\n want %v", label, got, want)
		}
		done = append(done, kept{label, got, maps.Clone(want)})
	}
	for _, k := range done {
		if !maps.Equal(k.got, k.want) {
			t.Errorf("%s: assignment changed after later intervals reused the pool", k.label)
		}
	}
}

// TestConcurrentSchedulesMatchSerial runs Appro and Sequential from
// several goroutines at once on one shared, freshly built instance —
// racing the first computation of its memoized quanta and the pooled GAP
// buffers — over intervals of different sizes. Every result must equal a
// serial run on an identically built instance.
func TestConcurrentSchedulesMatchSerial(t *testing.T) {
	const n, seed = 1200, 32
	type job struct {
		sched    Scheduler
		iv       Interval
		regs     []Registration
		expected map[int]int
	}
	build := func() *core.Instance { return paperInstance(t, n, seed, radio.Paper2013(), 5, 1) }
	serial := build()
	var jobs []job
	for k, spec := range []struct{ interval, stride int }{{4, 1}, {9, 3}, {15, 1}, {16, 7}, {27, 2}, {40, 1}} {
		iv := intervalOf(serial, spec.interval)
		// Finite queues send Sequential through the rate-quantum DP.
		dataLeft := math.Inf(1)
		if k%2 == 1 {
			dataLeft = 60e3
		}
		regs := intervalRegs(serial, iv, spec.stride, 0.4, dataLeft)
		for _, s := range []Scheduler{&Appro{}, &Sequential{}} {
			want, err := s.Schedule(context.Background(), serial, iv, regs)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{s, iv, regs, want})
		}
	}
	shared := build()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range jobs {
					jb := jobs[(k+w*len(jobs)/workers)%len(jobs)]
					got, err := jb.sched.Schedule(context.Background(), shared, jb.iv, jb.regs)
					if err != nil {
						t.Errorf("worker %d: %s interval %d: %v", w, jb.sched.Name(), jb.iv.Index, err)
						return
					}
					if !maps.Equal(got, jb.expected) {
						t.Errorf("worker %d: %s interval %d (%d registrants): concurrent result differs from serial",
							w, jb.sched.Name(), jb.iv.Index, len(jb.regs))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestApproScheduleAllocs gates the per-interval allocations of Appro on a
// paper-scale interval: the GAP instance is built in pooled buffers, so
// the allocation count may grow with the registrants (one knapsack
// solution per bin) but not with registrants × window, as the per-bin
// growing entry slices did.
func TestApproScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation charges allocations to the pooled paths")
	}
	inst := paperInstance(t, 4000, 33, radio.Paper2013(), 5, 1)
	iv := intervalOf(inst, 25)
	regs := intervalRegs(inst, iv, 1, 0.5, math.Inf(1))
	if len(regs) < 100 {
		t.Fatalf("only %d registrants; the gate needs a paper-scale interval", len(regs))
	}
	entries := 0
	for _, r := range regs {
		entries += r.ClipEnd - r.ClipStart + 1
	}
	a := &Appro{}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.Schedule(ctx, inst, iv, regs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs, %d registrants, %d window slots", allocs, len(regs), entries)
	if limit := float64(len(regs) + 64); allocs > limit {
		t.Errorf("Appro.Schedule: %.0f allocs for %d registrants (%d window slots), want ≤ %.0f",
			allocs, len(regs), entries, limit)
	}
}
