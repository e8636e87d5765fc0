// Package online implements the paper's distributed data-collection
// framework (Algorithm 2) and its two per-interval time-slot schedulers:
//
//   - Appro  — the GAP-based scheduler of §V.B (Online_Appro),
//   - MaxMatch — the matching-based scheduler of §VI for the fixed
//     transmission power special case (Online_MaxMatch),
//
// plus a density-greedy scheduler as a baseline.
//
// Per tour the sink divides the T slots into intervals of Γ = ⌊R/(r_s·τ)⌋
// slots. At each interval start it broadcasts a Probe; sensors currently in
// range reply with an Ack carrying their profile (position, residual
// budget, window); when the registration timer expires the sink runs the
// scheduler over the interval's slots and the registered sensors only,
// broadcasts the Schedule, collects data, then broadcasts Finish, at which
// point the registered sensors debit their energy budgets. The sink never
// learns about sensors it has not probed — that locality is the only
// difference from the offline algorithms, and Lemma 1 guarantees every
// sensor is probed in at most two consecutive intervals.
package online

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/gap"
	"mobisink/internal/knapsack"
	"mobisink/internal/mac"
	"mobisink/internal/matching"
	"mobisink/internal/sim"
)

// Registration is the sensor profile carried by an Ack message, as visible
// to the sink in one interval.
type Registration struct {
	Sensor int     // sensor index
	Budget float64 // residual energy at registration time, J
	// DataLeft is the residual sensed data still queued at the sensor,
	// bits; +Inf on instances without data caps.
	DataLeft float64
	// ClipStart/ClipEnd is [i'_s, i'_e] = A(v) ∩ interval, inclusive;
	// ClipStart > ClipEnd when the overlap is empty.
	ClipStart, ClipEnd int
}

// Interval describes one probe interval.
type Interval struct {
	Index      int // j
	Start, End int // inclusive slot range [a_j, b_j]
}

// Scheduler allocates one interval's slots among the registered sensors.
// Implementations must respect each registration's residual budget and
// clipped window, and should poll ctx inside long computations so a
// canceled tour aborts mid-interval. The returned map is
// slot → sensor index.
type Scheduler interface {
	Name() string
	Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error)
}

// MessageStats counts protocol messages per tour.
type MessageStats struct {
	Probes    int // broadcast probes (one per interval, the paper's exchange)
	Acks      int // sensor acknowledgements
	Schedules int // broadcast scheduling results
	Finishes  int // broadcast finish messages
	// Retransmits counts the extra Probe broadcasts of the recovery
	// protocol's registration rounds beyond the paper's single exchange
	// (always 0 on fault-free runs).
	Retransmits int
	// RepairUnicasts counts the unicast schedule-repair messages that
	// reassign a silent sensor's slot to a replacement (always 0 on
	// fault-free runs).
	RepairUnicasts int
}

// Total returns all messages sent per tour, including the recovery
// traffic (retransmitted probes and repair unicasts).
func (m MessageStats) Total() int {
	return m.Probes + m.Acks + m.Schedules + m.Finishes + m.Retransmits + m.RepairUnicasts
}

// Result is the outcome of one simulated tour.
type Result struct {
	Alloc     *core.Allocation
	Data      float64 // bits collected
	Messages  MessageStats
	Intervals int
	// RegisteredIn[i] lists the interval indices in which sensor i
	// registered (for the Lemma 1 check).
	RegisteredIn [][]int
	// Residual[i] is sensor i's remaining budget after the tour.
	Residual []float64
	// ResidualData[i] is sensor i's remaining queued data after the tour,
	// bits (+Inf entries on uncapped instances).
	ResidualData []float64
	// Fault tallies the injected faults and performed recoveries when the
	// run used a fault plan (Options.Faults or ComputeDeadline); nil on
	// fault-free runs.
	Fault *fault.Stats
}

// NewResult builds the empty tour ledger for an instance: a fresh
// allocation, full energy budgets, and full data caps. Both the
// simulated runner and the wire transport's sink start from it, so
// their ledgers agree bit-for-bit before the first interval.
func NewResult(inst *core.Instance) *Result {
	res := &Result{
		Alloc:        inst.NewAllocation(),
		RegisteredIn: make([][]int, len(inst.Sensors)),
		Residual:     make([]float64, len(inst.Sensors)),
		ResidualData: make([]float64, len(inst.Sensors)),
	}
	for i := range inst.Sensors {
		res.Residual[i] = inst.Sensors[i].Budget
		res.ResidualData[i] = inst.DataCapOf(i)
	}
	return res
}

// CheckLemma1 verifies each sensor registered in at most two consecutive
// intervals (paper Lemma 1).
func (r *Result) CheckLemma1() error {
	for i, ivs := range r.RegisteredIn {
		if len(ivs) > 2 {
			return fmt.Errorf("online: sensor %d registered in %d intervals %v", i, len(ivs), ivs)
		}
		if len(ivs) == 2 && ivs[1] != ivs[0]+1 {
			return fmt.Errorf("online: sensor %d registered in non-consecutive intervals %v", i, ivs)
		}
	}
	return nil
}

// Options tunes protocol realism beyond the paper's idealized assumptions.
type Options struct {
	// AckWindow, when positive, simulates CSMA contention during the
	// registration phase with that many backoff slots per interval
	// (internal/mac); sensors whose Ack collides miss the interval. The
	// paper assumes AckWindow = 0, i.e. collision-free registration.
	AckWindow int
	// Seed drives the contention randomness; runs are deterministic per
	// seed.
	Seed int64
	// Rand, when non-nil, supplies the contention randomness directly
	// instead of deriving a stream from Seed — injecting one generator
	// makes a whole experiment (topology, budgets, contention, faults)
	// reproducible from a single source. The run consumes the generator;
	// reusing it across runs changes their draws.
	Rand *rand.Rand
	// Faults, when non-nil and non-zero, injects the fault plan into the
	// tour (message drops, crashes, harvest shortfalls, compute stalls —
	// see internal/fault) and enables the recovery protocol: bounded
	// Probe/Ack retransmission, schedule repair, budget feasibility
	// guards, and degraded-mode fallback. Nil (or a zero plan) keeps the
	// paper's lossless channel and the byte-identical fault-free path.
	Faults *fault.Plan
	// ComputeDeadline, when positive, bounds each interval's scheduler
	// wall-clock time; an interval whose scheduler overruns it falls back
	// to the degraded scheduler (wall-clock dependent, so off by default;
	// deterministic stalls are injected via Faults.StallProb instead).
	ComputeDeadline time.Duration
	// Degraded overrides the fallback scheduler used for stalled
	// intervals. Nil picks the density-greedy scheduler (Sequential on
	// data-capped instances, which Greedy cannot handle).
	Degraded Scheduler
}

// contentionRand returns the RNG driving registration contention and
// fault-path draws: the injected generator when set, else a fresh stream
// from Seed.
func (o Options) contentionRand() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed))
}

// Run simulates one tour of the online protocol over the instance using the
// given scheduler, driving all message exchanges through a discrete-event
// engine, under the paper's idealized registration (no Ack contention).
func Run(inst *core.Instance, sched Scheduler) (*Result, error) {
	return RunCtx(context.Background(), inst, sched, Options{})
}

// RunOpts is Run with protocol options.
func RunOpts(inst *core.Instance, sched Scheduler, opts Options) (*Result, error) {
	return RunCtx(context.Background(), inst, sched, opts)
}

// RunCtx is RunOpts with cancellation: the context is polled at every
// interval boundary and threaded into the scheduler, so a canceled job
// stops between (or inside) intervals instead of finishing the tour.
func RunCtx(ctx context.Context, inst *core.Instance, sched Scheduler, opts Options) (*Result, error) {
	if inst == nil {
		return nil, errors.New("online: nil instance")
	}
	if sched == nil {
		return nil, errors.New("online: nil scheduler")
	}
	if inst.NumSinks() > 1 {
		return nil, fmt.Errorf("online: the online protocol drives a single sink, instance has a fleet of %d", inst.NumSinks())
	}
	if inst.DataCaps != nil {
		aware, ok := sched.(interface{ CapAware() bool })
		if !ok || !aware.CapAware() {
			return nil, fmt.Errorf("online: scheduler %s does not handle data-capped instances (use Sequential)", sched.Name())
		}
	}
	eng := sim.NewEngine()
	res := NewResult(inst)

	gamma := inst.Gamma
	intervals := (inst.T + gamma - 1) / gamma
	res.Intervals = intervals

	var contention *rand.Rand
	if opts.AckWindow > 0 {
		contention = opts.contentionRand()
	}
	// The fault path is taken only when something can actually fire, so
	// the common fault-free run never diverges from the paper's protocol.
	var fs *faultState
	if (opts.Faults != nil && !opts.Faults.Zero()) || opts.ComputeDeadline > 0 {
		if inst.DataCaps != nil && opts.Degraded != nil {
			aware, ok := opts.Degraded.(interface{ CapAware() bool })
			if !ok || !aware.CapAware() {
				return nil, fmt.Errorf("online: degraded scheduler %s does not handle data-capped instances", opts.Degraded.Name())
			}
		}
		plan := fault.Plan{}
		if opts.Faults != nil {
			plan = *opts.Faults
		}
		if plan.Seed == 0 {
			plan.Seed = opts.Seed // one seed reproduces the whole run
		}
		inj, err := fault.NewInjector(plan, len(inst.Sensors), inst.T)
		if err != nil {
			return nil, err
		}
		fs = newFaultState(inj, inst, opts, res)
		res.Fault = fs.stats
		eng.SetFilter(fs.finishFilter)
	}
	var schedErr error
	for j := 0; j < intervals; j++ {
		j := j
		start := j * gamma
		end := start + gamma - 1
		if end >= inst.T {
			end = inst.T - 1
		}
		iv := Interval{Index: j, Start: start, End: end}
		probeAt := float64(start) * inst.Tau
		err := eng.Schedule(probeAt, fmt.Sprintf("probe-%d", j), func(now float64) {
			if schedErr != nil {
				return
			}
			if schedErr = ctx.Err(); schedErr != nil {
				return
			}
			if fs != nil {
				schedErr = runIntervalFaulty(ctx, eng, inst, sched, iv, res, opts, contention, fs)
			} else {
				schedErr = runInterval(ctx, eng, inst, sched, iv, res, opts, contention)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	eng.Run()
	if schedErr != nil {
		return nil, schedErr
	}
	res.Messages = MessageStats{
		Probes:         eng.Counter("probe"),
		Acks:           eng.Counter("ack"),
		Schedules:      eng.Counter("schedule"),
		Finishes:       eng.Counter("finish"),
		Retransmits:    eng.Counter("probe-retransmit"),
		RepairUnicasts: eng.Counter("repair"),
	}
	inst.RecomputeData(res.Alloc)
	res.Data = res.Alloc.Data
	if _, err := inst.Validate(res.Alloc); err != nil {
		return nil, fmt.Errorf("online: produced infeasible allocation: %w", err)
	}
	return res, nil
}

// runInterval executes the probe → ack → schedule → transmit → finish cycle
// of one interval.
func runInterval(ctx context.Context, eng *sim.Engine, inst *core.Instance, sched Scheduler, iv Interval, res *Result, opts Options, contention *rand.Rand) error {
	eng.Count("probe", 1)
	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)

	// Sensors in range of the probe ack with their profiles.
	var inRange []int
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 || sinkPos.Dist(s.Pos) > inst.Range {
			continue
		}
		inRange = append(inRange, i)
	}
	// Registration contention: every in-range sensor transmits an Ack, but
	// only the contention winners are heard by the sink.
	heard := make([]bool, len(inRange))
	for k := range heard {
		heard[k] = true
	}
	if contention != nil {
		ok, err := mac.CSMAWindow(len(inRange), opts.AckWindow, contention)
		if err != nil {
			return err
		}
		heard = ok
	}
	regs := make([]Registration, 0, len(inRange))
	for k, i := range inRange {
		eng.Count("ack", 1) // the Ack is sent regardless of collisions
		if !heard[k] {
			eng.Count("ack-lost", 1)
			continue
		}
		s := &inst.Sensors[i]
		res.RegisteredIn[i] = append(res.RegisteredIn[i], iv.Index)
		cs, ce := s.Start, s.End
		if cs < iv.Start {
			cs = iv.Start
		}
		if ce > iv.End {
			ce = iv.End
		}
		regs = append(regs, Registration{
			Sensor: i, Budget: res.Residual[i], DataLeft: res.ResidualData[i],
			ClipStart: cs, ClipEnd: ce,
		})
	}
	if len(regs) == 0 {
		return nil // nobody answered; the sink idles this interval
	}

	// Registration timer expiry: run the scheduler, broadcast the result.
	assign, err := sched.Schedule(ctx, inst, iv, regs)
	if err != nil {
		return fmt.Errorf("online: interval %d: %w", iv.Index, err)
	}
	eng.Count("schedule", 1)
	if err := applyAssignment(inst, iv, regs, assign, res); err != nil {
		return fmt.Errorf("online: interval %d: %w", iv.Index, err)
	}

	// Finish broadcast at the end of the interval; budgets were already
	// debited in applyAssignment (the sensors' update on Finish receipt).
	finishAt := (float64(iv.End) + 1) * inst.Tau
	return eng.Schedule(finishAt, fmt.Sprintf("finish-%d", iv.Index), func(float64) {
		eng.Count("finish", 1)
	})
}

// ApplyAssignment validates a scheduler's output against the protocol
// rules and commits it to the tour allocation and residual budgets. It is
// the single commit path shared by the in-process runner and the wire
// transport (internal/wire), so a sink server debits budgets — including
// the floating-point accumulation order — exactly as RunCtx does.
func ApplyAssignment(inst *core.Instance, iv Interval, regs []Registration, assign map[int]int, res *Result) error {
	return applyAssignment(inst, iv, regs, assign, res)
}

// applyAssignment validates a scheduler's output against the protocol rules
// and commits it to the tour allocation and residual budgets.
func applyAssignment(inst *core.Instance, iv Interval, regs []Registration, assign map[int]int, res *Result) error {
	regOf := make(map[int]*Registration, len(regs))
	for k := range regs {
		regOf[regs[k].Sensor] = &regs[k]
	}
	slots := make([]int, 0, len(assign))
	for slot, sensor := range assign {
		r, ok := regOf[sensor]
		if !ok {
			return fmt.Errorf("scheduler assigned slot %d to unregistered sensor %d", slot, sensor)
		}
		if slot < r.ClipStart || slot > r.ClipEnd {
			return fmt.Errorf("slot %d outside clipped window [%d,%d] of sensor %d", slot, r.ClipStart, r.ClipEnd, sensor)
		}
		if res.Alloc.SlotOwner[slot] != -1 {
			return fmt.Errorf("slot %d double-booked", slot)
		}
		slots = append(slots, slot)
	}
	// Accumulate spends in ascending slot order: summation order pins the
	// floating-point result, keeping residual budgets — and every decision
	// downstream of them — independent of map iteration order.
	sort.Ints(slots)
	spend := make(map[int]float64)
	dataSpend := make(map[int]float64)
	for _, slot := range slots {
		sensor := assign[slot]
		spend[sensor] += inst.Sensors[sensor].PowerAt(slot) * inst.Tau
		dataSpend[sensor] += inst.Sensors[sensor].RateAt(slot) * inst.Tau
	}
	for sensor, e := range spend {
		if e > res.Residual[sensor]+1e-9 {
			return fmt.Errorf("sensor %d scheduled to spend %v J with only %v J left", sensor, e, res.Residual[sensor])
		}
		if d := dataSpend[sensor]; d > res.ResidualData[sensor]+1e-6 {
			return fmt.Errorf("sensor %d scheduled to upload %v bits with only %v queued", sensor, d, res.ResidualData[sensor])
		}
	}
	for slot, sensor := range assign {
		res.Alloc.SlotOwner[slot] = sensor
	}
	for sensor, e := range spend {
		res.Residual[sensor] = math.Max(0, res.Residual[sensor]-e)
		if !math.IsInf(res.ResidualData[sensor], 1) {
			res.ResidualData[sensor] = math.Max(0, res.ResidualData[sensor]-dataSpend[sensor])
		}
	}
	return nil
}

// Appro is the GAP-based scheduler (Online_Appro): within the interval it
// runs the same local-ratio algorithm as the offline solution, restricted
// to the registered sensors and the interval's Γ slots.
type Appro struct {
	Opts core.Options
}

// Name implements Scheduler.
func (a *Appro) Name() string { return "Online_Appro" }

// approScratch is one interval's GAP instance in flat, reusable form: the
// bins' Entries are consecutive windows of a single entries slice, so
// building an interval allocates nothing once the buffers have grown to
// the tour's largest interval.
type approScratch struct {
	order   []int
	entries []gap.Entry
	bins    []gap.Bin
}

// approScratchMax bounds the entries of a scratch returned to the pool,
// so one huge interval does not pin its buffers for good.
const approScratchMax = 1 << 20

var approPool = sync.Pool{New: func() any { return new(approScratch) }}

// Schedule implements Scheduler.
func (a *Appro) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	sc := approPool.Get().(*approScratch)
	defer putApproScratch(sc)
	// Order registered sensors by (clipped start, clipped end) — the same
	// ordering rule as offline.
	order := registrationOrder(sc.order, regs)
	sc.order = order
	// Every bin's entries are a window of one flat slice, sized up front to
	// the sum of the clipped windows so the windows never move; each window
	// is capped so no bin can grow into its neighbour.
	total := 0
	for k := range regs {
		if w := regs[k].ClipEnd - regs[k].ClipStart + 1; w > 0 {
			total += w
		}
	}
	if cap(sc.entries) < total {
		sc.entries = make([]gap.Entry, 0, total)
	}
	entries := sc.entries[:0]
	bins := sc.bins[:0]
	for _, k := range order {
		r := &regs[k]
		s := &inst.Sensors[r.Sensor]
		lo := len(entries)
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			rate, pw := s.RateAt(j), s.PowerAt(j)
			if rate <= 0 || pw <= 0 {
				continue
			}
			entries = append(entries, gap.Entry{
				Item: j - iv.Start, Profit: rate * inst.Tau, Weight: pw * inst.Tau,
			})
		}
		bin := gap.Bin{Capacity: r.Budget}
		if hi := len(entries); hi > lo {
			bin.Entries = entries[lo:hi:hi]
		}
		bins = append(bins, bin)
	}
	sc.entries, sc.bins = entries, bins
	g := gap.Instance{NumItems: iv.End - iv.Start + 1, Bins: bins}
	asg, err := gap.LocalRatioCtx(ctx, &g, a.solver(inst))
	if err != nil {
		return nil, err
	}
	assigned := 0
	for _, b := range asg.ItemBin {
		if b >= 0 {
			assigned++
		}
	}
	assign := make(map[int]int, assigned)
	for item, b := range asg.ItemBin {
		if b >= 0 {
			assign[item+iv.Start] = regs[order[b]].Sensor
		}
	}
	return assign, nil
}

func putApproScratch(sc *approScratch) {
	if cap(sc.entries) <= approScratchMax {
		approPool.Put(sc)
	}
}

// registrationOrder fills dst with the indices of regs ordered by
// (clipped start, clipped end, sensor) — the offline (Start, End) ordering
// rule restricted to the interval — and returns it.
func registrationOrder(dst []int, regs []Registration) []int {
	order := dst[:0]
	for k := range regs {
		order = append(order, k)
	}
	slices.SortFunc(order, func(x, y int) int {
		rx, ry := &regs[x], &regs[y]
		if c := cmp.Compare(rx.ClipStart, ry.ClipStart); c != 0 {
			return c
		}
		if c := cmp.Compare(rx.ClipEnd, ry.ClipEnd); c != 0 {
			return c
		}
		return cmp.Compare(rx.Sensor, ry.Sensor)
	})
	return order
}

func (a *Appro) solver(inst *core.Instance) knapsack.SolverCtx {
	return a.Opts.SolverCtx(inst)
}

// MaxMatch is the matching-based scheduler for the fixed-power special case
// (Online_MaxMatch): per interval, a maximum-weight matching between
// registered sensors (with capacity n'_i = min(Γ, |[i'_s, i'_e]|,
// ⌊P(v_i)/(P'·τ)⌋)) and the interval's slots.
type MaxMatch struct {
	// UseHungarian switches to the paper's literal construction — n'_i
	// explicit sensor-node copies solved by the O(n³) Hungarian algorithm —
	// instead of the default capacity-aware min-cost flow. Both produce a
	// maximum-weight matching; the flow backend is faster. Kept for
	// validating the equivalence on live instances.
	UseHungarian bool
}

// Name implements Scheduler.
func (m *MaxMatch) Name() string { return "Online_MaxMatch" }

// Schedule implements Scheduler.
func (m *MaxMatch) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	pFixed, ok := inst.FixedTxPower()
	if !ok {
		return nil, errors.New("MaxMatch scheduler requires a fixed transmission power instance")
	}
	perSlot := pFixed * inst.Tau
	width := iv.End - iv.Start + 1
	if m.UseHungarian {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return m.scheduleHungarian(inst, iv, regs, perSlot, width)
	}
	g, err := matching.NewGraph(len(regs), width)
	if err != nil {
		return nil, err
	}
	for k, r := range regs {
		s := &inst.Sensors[r.Sensor]
		nCopies := int(math.Floor(r.Budget/perSlot + 1e-9))
		if w := r.ClipEnd - r.ClipStart + 1; nCopies > w {
			nCopies = w
		}
		if nCopies > inst.Gamma {
			nCopies = inst.Gamma
		}
		if nCopies < 0 {
			nCopies = 0
		}
		if err := g.SetLeftCap(k, nCopies); err != nil {
			return nil, err
		}
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if rate := s.RateAt(j); rate > 0 {
				if err := g.AddEdge(k, j-iv.Start, rate*inst.Tau); err != nil {
					return nil, err
				}
			}
		}
	}
	match, err := g.MaxWeightCtx(ctx)
	if err != nil {
		return nil, err
	}
	assign := make(map[int]int)
	for rSlot, k := range match.RightMatch {
		if k >= 0 {
			assign[rSlot+iv.Start] = regs[k].Sensor
		}
	}
	return assign, nil
}

// scheduleHungarian is the paper's G' construction: n'_i identical copies
// per registered sensor, solved with the Hungarian algorithm.
func (m *MaxMatch) scheduleHungarian(inst *core.Instance, iv Interval, regs []Registration, perSlot float64, width int) (map[int]int, error) {
	var rows [][]float64
	var rowSensor []int
	for _, r := range regs {
		s := &inst.Sensors[r.Sensor]
		nCopies := int(math.Floor(r.Budget/perSlot + 1e-9))
		if w := r.ClipEnd - r.ClipStart + 1; nCopies > w {
			nCopies = w
		}
		if nCopies > inst.Gamma {
			nCopies = inst.Gamma
		}
		if nCopies <= 0 {
			continue
		}
		row := make([]float64, width)
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if rate := s.RateAt(j); rate > 0 {
				row[j-iv.Start] = rate * inst.Tau
			}
		}
		for c := 0; c < nCopies; c++ {
			rows = append(rows, row)
			rowSensor = append(rowSensor, r.Sensor)
		}
	}
	matchL, _, err := matching.Hungarian(rows)
	if err != nil {
		return nil, err
	}
	assign := make(map[int]int)
	for l, r := range matchL {
		if r >= 0 {
			assign[r+iv.Start] = rowSensor[l]
		}
	}
	return assign, nil
}

// Greedy is a per-interval density-greedy scheduler baseline.
type Greedy struct{}

// Name implements Scheduler.
func (g *Greedy) Name() string { return "Online_Greedy" }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	width := iv.End - iv.Start + 1
	gi := &gap.Instance{NumItems: width}
	gi.Bins = make([]gap.Bin, len(regs))
	for k, r := range regs {
		s := &inst.Sensors[r.Sensor]
		bin := gap.Bin{Capacity: r.Budget}
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			rate, pw := s.RateAt(j), s.PowerAt(j)
			if rate <= 0 || pw <= 0 {
				continue
			}
			bin.Entries = append(bin.Entries, gap.Entry{Item: j - iv.Start, Profit: rate * inst.Tau, Weight: pw * inst.Tau})
		}
		gi.Bins[k] = bin
	}
	asg, err := gap.Greedy(gi)
	if err != nil {
		return nil, err
	}
	assign := make(map[int]int)
	for item, b := range asg.ItemBin {
		if b >= 0 {
			assign[item+iv.Start] = regs[b].Sensor
		}
	}
	return assign, nil
}
