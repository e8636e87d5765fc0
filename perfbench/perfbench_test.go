package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/wire"
)

// smallDeployment is a short-path field whose tours take milliseconds.
func smallDeployment(t *testing.T, seed int64) *network.Deployment {
	t.Helper()
	dep, err := network.Generate(network.Params{N: 40, PathLength: 1500, MaxOffset: 120, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), dep.PathLength/sinkSpeed, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	return dep
}

func smallRunner(t *testing.T, wireTours bool) *runner {
	t.Helper()
	r := &runner{
		w:     workload{name: "small", n: 40, fields: 1, wire: wireTours},
		sched: newScheduler,
		dir:   t.TempDir(),
		tr:    &tracer{},
		ctx:   context.Background(),
	}
	if err := r.addField(smallDeployment(t, 3)); err != nil {
		t.Fatal(err)
	}
	if r.fields[0].want.Data <= 0 {
		t.Fatal("small field collects no data")
	}
	return r
}

// dropOne forwards to Appro and then drops the lowest assigned slot of
// every interval: a feasible but wrong schedule the parity gate must
// catch.
type dropOne struct{ online.Appro }

func (d *dropOne) Schedule(ctx context.Context, inst *core.Instance, iv online.Interval, regs []online.Registration) (map[int]int, error) {
	assign, err := d.Appro.Schedule(ctx, inst, iv, regs)
	lowest := math.MaxInt
	for slot := range assign {
		lowest = min(lowest, slot)
	}
	delete(assign, lowest)
	return assign, err
}

func TestTimedSchedulerIsTransparent(t *testing.T) {
	inst, err := buildInstance(smallDeployment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := online.RunCtx(context.Background(), inst, &online.Appro{}, online.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		ts := newTimedScheduler(&online.Appro{}, inst, traced)
		got, err := online.RunCtx(context.Background(), inst, ts, online.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTour(inst, got, want); err != nil {
			t.Errorf("traced=%v: wrapped tour differs from unwrapped: %v", traced, err)
		}
		if ts.Name() != "Online_Appro" {
			t.Errorf("wrapper name %q", ts.Name())
		}
		if len(ts.starts) == 0 || (traced && len(ts.ends) != len(ts.starts)) {
			t.Errorf("traced=%v: %d starts, %d ends", traced, len(ts.starts), len(ts.ends))
		}
	}
}

// TestTimedSchedulerForwardsCapAware checks that a data-capped instance
// is accepted or refused with the wrapper exactly as without it.
func TestTimedSchedulerForwardsCapAware(t *testing.T) {
	inst, err := buildInstance(smallDeployment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, len(inst.Sensors))
	for i := range caps {
		caps[i] = 1e6
	}
	if err := inst.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	for _, inner := range []online.Scheduler{&online.Appro{}, &online.Sequential{}} {
		_, plainErr := online.RunCtx(context.Background(), inst, inner, online.Options{})
		_, wrapErr := online.RunCtx(context.Background(), inst, newTimedScheduler(inner, inst, false), online.Options{})
		if (plainErr == nil) != (wrapErr == nil) {
			t.Errorf("%s: online.RunCtx unwrapped err %v, wrapped err %v", inner.Name(), plainErr, wrapErr)
		}
		sink, sinkErr := wire.NewSink(wire.SinkConfig{Inst: inst, Scheduler: newTimedScheduler(inner, inst, false)})
		if sinkErr == nil {
			sink.Close()
		}
		if (plainErr == nil) != (sinkErr == nil) {
			t.Errorf("%s: wire.NewSink wrapped err %v, online.RunCtx unwrapped err %v", inner.Name(), sinkErr, plainErr)
		}
	}
}

func TestToursPassParityGate(t *testing.T) {
	for _, wireTours := range []bool{false, true} {
		r := smallRunner(t, wireTours)
		for id, traced := range []bool{false, true} {
			ts, err := r.tour(id, traced)
			if err != nil {
				t.Fatalf("wire=%v traced=%v: %v", wireTours, traced, err)
			}
			// Only end-of-tour resets may end a session in error on a
			// tour that passed the gate.
			if ts.sessionFails != 0 {
				t.Errorf("wire=%v: %d client sessions failed: %v", wireTours, ts.sessionFails, ts.sessionErrs)
			}
			if ts.endResets != len(ts.sessionErrs) {
				t.Errorf("wire=%v: %d end-of-tour resets, session errors %v", wireTours, ts.endResets, ts.sessionErrs)
			}
			if math.Float64bits(ts.data) != math.Float64bits(r.fields[0].want.Data) {
				t.Errorf("wire=%v: data %v, reference %v", wireTours, ts.data, r.fields[0].want.Data)
			}
		}
	}
}

func TestParityGateCatchesDroppedAssignment(t *testing.T) {
	for _, wireTours := range []bool{false, true} {
		r := smallRunner(t, wireTours)
		r.sched = func() online.Scheduler { return &dropOne{} }
		if _, err := r.tour(0, false); err == nil {
			t.Errorf("wire=%v: a scheduler dropping assignments passed the parity gate", wireTours)
		}
	}
}

// TestRegistryDiffsWithinTour checks that the registry diffs, converted
// by each histogram's known unit, fit inside the tour they measured, and
// that the rebuilt frame mix is exactly the frames the tour sent.
func TestRegistryDiffsWithinTour(t *testing.T) {
	r := smallRunner(t, true)
	ts, err := r.tour(0, true)
	if err != nil {
		t.Fatal(err)
	}
	tour := ts.tour.Seconds()
	if ts.reg.registration <= 0 || ts.reg.registration > tour {
		t.Errorf("wire.registration_s %v outside (0, tour_s %v]", ts.reg.registration, tour)
	}
	if ts.reg.fanout <= 0 || ts.reg.fanout > tour {
		t.Errorf("wire.fanout_stall_s %v outside (0, tour_s %v]", ts.reg.fanout, tour)
	}
	if ts.reg.commitPath > tour {
		t.Errorf("wire.commit_path_s %v exceeds tour_s %v", ts.reg.commitPath, tour)
	}
	inst, err := buildInstance(r.fields[0].dep)
	if err != nil {
		t.Fatal(err)
	}
	_, copies := frameMix(inst, r.fields[0].want)
	sent := 0
	for _, c := range copies {
		sent += c
	}
	if float64(sent) != ts.reg.framesSent || ts.reg.framesSent != ts.reg.framesRecv {
		t.Errorf("frame mix has %d frames; registry counted %v sent, %v received", sent, ts.reg.framesSent, ts.reg.framesRecv)
	}
	if len(ts.wal.appends) == 0 || ts.wal.bytes <= 0 {
		t.Errorf("wal pass measured %d appends over %v bytes", len(ts.wal.appends), ts.wal.bytes)
	}
}
