package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/radio"
	"mobisink/internal/wire"
)

// workload is one benchmark input family. Every workload is the paper's
// §VII deployment — a 10 km path, sensors up to 180 m off it, the sink
// at 5 m/s with τ = 1 s, so T = 2000 slots in Γ = 40-slot intervals —
// with sunny steady-state budgets and Online_Appro. Only the sensor
// count and the transport differ.
type workload struct {
	name string
	n    int
	// fields is how many independent sensor fields one seed generates;
	// tours cycle through them. Averaging over fields keeps a run's
	// figures from hinging on one draw of sensor positions, which matters
	// most for small N. It is odd so that a traced run, which alternates
	// traced and untraced tours, traces every field.
	fields int
	// wire runs the tour over loopback TCP (wire.Sink plus one
	// wire.SensorClient per sensor, WAL on); otherwise online.RunCtx.
	wire bool
}

var workloads = []workload{
	// The end-to-end number: 1000 sensor connections driven in lockstep.
	// Registration and Ack fan-in dominate the tour; the solver is ~2%.
	{name: "wire-paper-1k", n: 1000, fields: 5, wire: true},
	// The solver-bound case: ~168 registrants per interval through the
	// GAP local-ratio solve, with no sockets and no WAL. Wire-only
	// changes must leave it unchanged. N=5000 over the wire takes about
	// a minute per tour until the O(N²) registration scan is fixed.
	{name: "inproc-paper-5k", n: 5000, fields: 3},
	// Per-interval fixed cost: ~3.6 registrants per interval, so shard
	// hand-off, flush, round-trip wake-ups, commit and the WAL fsync
	// dominate rather than per-sensor scaling.
	{name: "wire-sparse-100", n: 100, fields: 31, wire: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	sinkSpeed = 5.0 // m/s
	slotLen   = 1.0 // τ, s
)

// deployment generates one sensor field from its seed: the benchmark's
// input, built once per run and never timed.
func deployment(n int, seed int64) (*network.Deployment, error) {
	dep, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), dep.PathLength/sinkSpeed, 0.2, rng); err != nil {
		return nil, err
	}
	return dep, nil
}

func buildInstance(dep *network.Deployment) (*core.Instance, error) {
	return core.BuildInstance(dep, radio.Paper2013(), sinkSpeed, slotLen)
}

// newScheduler is the scheduler every workload runs.
func newScheduler() online.Scheduler { return &online.Appro{} }

// tourStats is everything measured around one tour.
type tourStats struct {
	traced bool
	field  int

	build, sinkNew, join, wait, setup time.Duration
	joins                             []time.Duration // per DialSensor
	tour                              time.Duration
	intervals                         []time.Duration // per Schedule call
	cpu                               time.Duration
	alloc                             uint64
	gcCycles                          uint32
	gcPause                           time.Duration
	data                              float64 // bits

	// Failure accounting: the tour itself plus one operation per client
	// session. A session fails when it never joined, when its Run ends in
	// an error, or when backpressure killed its connection. The one
	// exception is endResets: sessions of a tour that passed the gate,
	// so whose client residuals match the reference, whose Run ended in
	// ECONNRESET at teardown. That is the known end-of-tour race (the
	// sink closes a socket with unread inbound bytes, see ROADMAP); the
	// session's work was correct, so it is counted apart, in
	// wire.end_resets_per_tour and error_rate, not in failed.
	attempted    int
	sessionFails int
	endResets    int
	sessionErrs  []error

	reg registryDiff

	// Traced tours only.
	schedules []time.Duration
	regs      int
	codec     codecStats
	wal       walStats
}

// field is one sensor field and its in-process reference tour, computed
// once per run and never timed.
type field struct {
	dep  *network.Deployment
	want *online.Result
}

// runner drives the tours of one benchmark run.
type runner struct {
	w      workload
	fields []field
	sched  func() online.Scheduler // the toured scheduler; the reference always runs newScheduler
	dir    string                  // WAL directory
	tr     *tracer                 // nil on untraced runs
	ctx    context.Context
}

func newRunner(ctx context.Context, w workload, seed int64, dir string, tr *tracer) (*runner, error) {
	r := &runner{w: w, sched: newScheduler, dir: dir, tr: tr, ctx: ctx}
	seeds := rand.New(rand.NewSource(seed))
	for k := 0; k < w.fields; k++ {
		dep, err := deployment(w.n, seeds.Int63())
		if err != nil {
			return nil, err
		}
		if err := r.addField(dep); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// addField computes a field's in-process reference tour.
func (r *runner) addField(dep *network.Deployment) error {
	inst, err := buildInstance(dep)
	if err != nil {
		return err
	}
	want, err := online.RunCtx(r.ctx, inst, newScheduler(), online.Options{})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := checkTour(inst, want, want); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	r.fields = append(r.fields, field{dep: dep, want: want})
	return nil
}

// procSample is the process state read before and after a tour.
type procSample struct {
	cpu   time.Duration
	alloc uint64
	numGC uint32
	pause uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: cpuTime(), alloc: ms.TotalAlloc, numGC: ms.NumGC, pause: ms.PauseTotalNs}
}

func (ts *tourStats) recordProc(a, b procSample) {
	ts.cpu = b.cpu - a.cpu
	ts.alloc = b.alloc - a.alloc
	ts.gcCycles = b.numGC - a.numGC
	ts.gcPause = time.Duration(b.pause - a.pause)
}

// tour runs one complete tour — set-up, the timed tour, teardown, the
// correctness gate — and, when traced, the outside layer passes. A tour
// that fails is counted, not fatal: the returned error says why.
func (r *runner) tour(id int, traced bool) (*tourStats, error) {
	k := id % len(r.fields)
	if r.w.wire {
		return r.wireTour(id, k, traced)
	}
	return r.inprocTour(id, k, traced)
}

func (r *runner) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

func (r *runner) inprocTour(id, k int, traced bool) (*tourStats, error) {
	ts := &tourStats{traced: traced, field: k, attempted: 1}
	fd := r.fields[k]
	tr := r.tracerFor(traced)
	setupSpan := tr.begin(id, -1, "setup")
	sp := tr.begin(id, setupSpan, "core.build")
	t0 := time.Now()
	inst, err := buildInstance(fd.dep)
	ts.build = time.Since(t0)
	ts.setup = ts.build
	tr.end(sp)
	tr.end(setupSpan)
	if err != nil {
		return ts, err
	}
	sched := newTimedScheduler(r.sched(), inst, traced)

	before := readProc()
	tourSpan := tr.begin(id, -1, "tour")
	start := time.Now()
	res, err := online.RunCtx(r.ctx, inst, sched, online.Options{})
	ts.tour = time.Since(start)
	tr.end(tourSpan)
	ts.recordProc(before, readProc())
	if err != nil {
		return ts, err
	}
	r.finishSchedule(ts, sched, start, id, tourSpan)
	ts.data = res.Data
	return ts, checkTour(inst, res, fd.want)
}

// finishSchedule turns the wrapper's timestamps into interval samples
// and, on traced tours, per-call spans under the tour span.
func (r *runner) finishSchedule(ts *tourStats, sched *timedScheduler, start time.Time, id, tourSpan int) {
	ts.intervals = sched.intervals(start)
	if !ts.traced {
		return
	}
	ts.schedules = sched.durations()
	for k := range sched.ends {
		ts.regs += sched.regs[k]
		r.tr.add(id, tourSpan, "online.schedule", sched.starts[k], sched.ends[k], sched.regs[k])
	}
}

// fleet is the in-process sensor clients of one wire tour.
type fleet struct {
	clients []*wire.SensorClient
	done    chan sessionEnd // one value per running client
	running int
}

// sessionEnd is how one client's Run returned.
type sessionEnd struct {
	sensor int
	err    error
}

// joinFleet dials every sensor with at most GOMAXPROCS dials in flight
// and starts each client's protocol loop. It returns the per-dial
// latencies; on a failed dial the clients dialed so far are still
// returned so the caller can tear them down.
func joinFleet(ctx context.Context, addr string, inst *core.Instance) (*fleet, []time.Duration, error) {
	n := len(inst.Sensors)
	fl := &fleet{clients: make([]*wire.SensorClient, n), done: make(chan sessionEnd, n)}
	joins := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				c, err := wire.DialSensor(addr, wire.SensorConfigFor(inst, i))
				joins[i] = time.Since(t0)
				if err != nil {
					errs[i] = err
					return
				}
				fl.clients[i] = c
			}
		}()
	}
	wg.Wait()
	for i, c := range fl.clients {
		if c == nil {
			continue
		}
		fl.running++
		go func() { fl.done <- sessionEnd{i, c.Run(ctx)} }()
	}
	return fl, joins, errors.Join(errs...)
}

// wait collects the Run results of every running client that ended in
// an error.
func (fl *fleet) wait() []sessionEnd {
	var errs []sessionEnd
	for i := 0; i < fl.running; i++ {
		if e := <-fl.done; e.err != nil {
			errs = append(errs, e)
		}
	}
	return errs
}

func (r *runner) wireTour(id, k int, traced bool) (*tourStats, error) {
	n := r.w.n
	ts := &tourStats{traced: traced, field: k, attempted: 1 + n}
	fd := r.fields[k]
	tr := r.tracerFor(traced)
	walPath := filepath.Join(r.dir, fmt.Sprintf("tour-%d.wal", id))
	defer os.Remove(walPath)

	setupSpan := tr.begin(id, -1, "setup")
	t0 := time.Now()
	sp := tr.begin(id, setupSpan, "core.build")
	inst, err := buildInstance(fd.dep)
	ts.build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		tr.end(setupSpan)
		return ts, err
	}
	sched := newTimedScheduler(r.sched(), inst, traced)
	sp = tr.begin(id, setupSpan, "sink.new")
	t1 := time.Now()
	sink, err := wire.NewSink(wire.SinkConfig{Inst: inst, Scheduler: sched, WALPath: walPath})
	ts.sinkNew = time.Since(t1)
	tr.end(sp)
	if err != nil {
		tr.end(setupSpan)
		return ts, err
	}
	sp = tr.begin(id, setupSpan, "fleet.join")
	t1 = time.Now()
	fl, joins, err := joinFleet(r.ctx, sink.Addr(), inst)
	ts.join = time.Since(t1)
	ts.joins = joins
	tr.end(sp)
	if err == nil {
		sp = tr.begin(id, setupSpan, "sink.wait")
		t1 = time.Now()
		err = sink.WaitSensors(r.ctx)
		ts.wait = time.Since(t1)
		tr.end(sp)
	}
	ts.setup = time.Since(t0)
	tr.end(setupSpan)

	var res *online.Result
	start := time.Now()
	tourSpan := -1
	regBefore, regErr := readRegistry()
	if err == nil {
		before := readProc()
		tourSpan = tr.begin(id, -1, "tour")
		start = time.Now()
		res, err = sink.RunTour(r.ctx)
		ts.tour = time.Since(start)
		tr.end(tourSpan)
		ts.recordProc(before, readProc())
	}

	// Tear down as a deployment does: the tour has returned, the sink
	// closes, and only then do the clients see the end of the tour.
	sp = tr.begin(id, -1, "teardown")
	sink.Close()
	ends := fl.wait()
	tr.end(sp)
	regAfter, regErr2 := readRegistry()
	ts.reg = regBefore.diff(regAfter)
	resets := 0
	for _, e := range ends {
		ts.sessionErrs = append(ts.sessionErrs, fmt.Errorf("sensor %d: %w", e.sensor, e.err))
		if errors.Is(e.err, syscall.ECONNRESET) {
			resets++
		}
	}
	// Every session error counts as failed until the gate below passes.
	ts.sessionFails = len(ends) + (n - fl.running) + int(ts.reg.connKills)
	if err != nil {
		return ts, err
	}
	if err := errors.Join(regErr, regErr2); err != nil {
		return ts, err
	}
	r.finishSchedule(ts, sched, start, id, tourSpan)
	ts.data = res.Data
	if err := checkTour(inst, res, fd.want); err != nil {
		return ts, err
	}
	for i, c := range fl.clients {
		if math.Float64bits(c.Residual()) != math.Float64bits(fd.want.Residual[i]) {
			return ts, fmt.Errorf("sensor %d client residual %v, reference %v", i, c.Residual(), fd.want.Residual[i])
		}
	}
	if traced {
		if ts.codec, err = codecPass(frameMix(inst, res)); err != nil {
			return ts, fmt.Errorf("codec pass: %w", err)
		}
		if ts.wal, err = walPass(walPath); err != nil {
			return ts, fmt.Errorf("wal pass: %w", err)
		}
	}
	// The tour and every client residual matched the reference, so a
	// reset at teardown lost nothing: it is the end-of-tour race.
	ts.sessionFails -= resets
	ts.endResets = resets
	return ts, nil
}

// checkTour is the correctness gate every tour passes: the allocation is
// feasible, Lemma 1 holds, and allocation, collected data, message
// counts, registrations and residual ledgers are bit-identical to the
// in-process reference run of the same instance and scheduler.
func checkTour(inst *core.Instance, got, want *online.Result) error {
	if _, err := inst.Validate(got.Alloc); err != nil {
		return fmt.Errorf("infeasible allocation: %w", err)
	}
	if err := got.CheckLemma1(); err != nil {
		return err
	}
	switch {
	case math.Float64bits(got.Data) != math.Float64bits(want.Data):
		return fmt.Errorf("data %v bits, reference %v", got.Data, want.Data)
	case !reflect.DeepEqual(got.Alloc.SlotOwner, want.Alloc.SlotOwner):
		return errors.New("slot assignments diverge from the reference")
	case got.Messages != want.Messages:
		return fmt.Errorf("messages %+v, reference %+v", got.Messages, want.Messages)
	case got.Intervals != want.Intervals:
		return fmt.Errorf("intervals %d, reference %d", got.Intervals, want.Intervals)
	case !reflect.DeepEqual(got.RegisteredIn, want.RegisteredIn):
		return errors.New("registration history diverges from the reference")
	}
	for i := range want.Residual {
		if math.Float64bits(got.Residual[i]) != math.Float64bits(want.Residual[i]) {
			return fmt.Errorf("sensor %d residual %v, reference %v", i, got.Residual[i], want.Residual[i])
		}
		if math.Float64bits(got.ResidualData[i]) != math.Float64bits(want.ResidualData[i]) {
			return fmt.Errorf("sensor %d residual data %v, reference %v", i, got.ResidualData[i], want.ResidualData[i])
		}
	}
	return nil
}
