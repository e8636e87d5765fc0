package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/metrics"
	"mobisink/internal/online"
	"mobisink/internal/wal"
	"mobisink/internal/wire"
)

// timedScheduler wraps the tour's scheduler and records, from outside
// the program, when each Schedule call started; traced tours also record
// when it returned and how many sensors registered. Both the sink and
// online.RunCtx call Schedule from a single goroutine, and the recorded
// slices are read only after the tour returns.
type timedScheduler struct {
	inner  online.Scheduler
	traced bool
	starts []time.Time
	ends   []time.Time
	regs   []int
}

// newTimedScheduler preallocates one timestamp per interval so the
// untraced path does no allocation inside the tour.
func newTimedScheduler(inner online.Scheduler, inst *core.Instance, traced bool) *timedScheduler {
	n := (inst.T + inst.Gamma - 1) / inst.Gamma
	s := &timedScheduler{inner: inner, traced: traced, starts: make([]time.Time, 0, n)}
	if traced {
		s.ends = make([]time.Time, 0, n)
		s.regs = make([]int, 0, n)
	}
	return s
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

// CapAware forwards the wrapped scheduler's answer, so the data-cap
// checks in wire.NewSink and online.RunCtx accept or reject the wrapper
// exactly as they would the scheduler itself.
func (s *timedScheduler) CapAware() bool {
	a, ok := s.inner.(interface{ CapAware() bool })
	return ok && a.CapAware()
}

func (s *timedScheduler) Schedule(ctx context.Context, inst *core.Instance, iv online.Interval, regs []online.Registration) (map[int]int, error) {
	s.starts = append(s.starts, time.Now())
	assign, err := s.inner.Schedule(ctx, inst, iv, regs)
	if s.traced {
		s.ends = append(s.ends, time.Now())
		s.regs = append(s.regs, len(regs))
	}
	return assign, err
}

// intervals returns one sample per Schedule call: the time since the
// previous call started (the tour start for the first call). An interval
// without registrants never calls Schedule, so it folds into the next
// sample.
func (s *timedScheduler) intervals(tourStart time.Time) []time.Duration {
	out := make([]time.Duration, len(s.starts))
	prev := tourStart
	for i, t := range s.starts {
		out[i] = t.Sub(prev)
		prev = t
	}
	return out
}

// durations returns each traced Schedule call's duration.
func (s *timedScheduler) durations() []time.Duration {
	out := make([]time.Duration, len(s.ends))
	for i := range s.ends {
		out[i] = s.ends[i].Sub(s.starts[i])
	}
	return out
}

// span is one traced layer boundary. Spans of one tour share Tour; a
// root span has Parent -1. Times are nanoseconds since the run started.
type span struct {
	Tour   int    `json:"tour"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Regs   int    `json:"regs,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how untraced tours run.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(tour, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Tour: tour, ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// add records a span whose bounds were timestamped elsewhere.
func (t *tracer) add(tour, parent int, name string, start, end time.Time, regs int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Tour: tour, ID: len(t.spans), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Regs: regs})
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// histSeconds converts each wire latency histogram the benchmark reads
// to seconds by its known name. The registry mixes _seconds and _ns
// histograms, so the unit is looked up here, never guessed from a
// suffix.
var histSeconds = map[string]float64{
	"wire_registration_roundtrip_seconds": 1,
	"wire_interval_compute_seconds":       1,
	"wire_broadcast_fanout_ns":            1e-9,
	"wire_interval_commit_ns":             1e-9,
}

// registryView is the part of metrics.Default() the benchmark diffs
// around a tour.
type registryView struct {
	hist       map[string]float64 // histogram sums, seconds
	framesSent float64
	framesRecv float64
	connKills  float64
}

func readRegistry() (registryView, error) {
	v := registryView{hist: make(map[string]float64, len(histSeconds))}
	hs := wire.LatencyHistograms()
	for name, scale := range histSeconds {
		h, ok := hs[name]
		if !ok {
			return v, fmt.Errorf("wire histogram %s is not registered", name)
		}
		v.hist[name] = h.Sum() * scale
	}
	for key, val := range metrics.Default().Snapshot() {
		switch {
		case strings.HasPrefix(key, "wire_frames_sent_total{"):
			v.framesSent += val
		case strings.HasPrefix(key, "wire_frames_received_total{"):
			v.framesRecv += val
		case key == "wire_conn_backpressure_kills_total":
			v.connKills = val
		}
	}
	return v, nil
}

// registryDiff is the per-tour movement of the wire registry.
type registryDiff struct {
	registration, fanout, commitPath  float64 // seconds
	framesSent, framesRecv, connKills float64
}

func (a registryView) diff(b registryView) registryDiff {
	return registryDiff{
		registration: b.hist["wire_registration_roundtrip_seconds"] - a.hist["wire_registration_roundtrip_seconds"],
		fanout:       b.hist["wire_broadcast_fanout_ns"] - a.hist["wire_broadcast_fanout_ns"],
		commitPath:   b.hist["wire_interval_commit_ns"] - a.hist["wire_interval_commit_ns"],
		framesSent:   b.framesSent - a.framesSent,
		framesRecv:   b.framesRecv - a.framesRecv,
		connKills:    b.connKills - a.connKills,
	}
}

// frameMix rebuilds the protocol frames of a finished fault-free tour:
// per interval one Probe to every sensor, one Ack from every sensor
// (register or decline), and, when anyone registered, one Schedule and
// one Finish to the registrants and a confirming Ack from each sensor
// the Schedule assigned a slot. copies[k] is how many times frame k
// crossed the wire. Registration budgets are the sensors' initial ones;
// the encoded size does not depend on the value.
func frameMix(inst *core.Instance, res *online.Result) (frames []wire.Msg, copies []int) {
	n := len(inst.Sensors)
	regsIn := make(map[[2]int]bool)
	for i, ivs := range res.RegisteredIn {
		for _, j := range ivs {
			regsIn[[2]int{i, j}] = true
		}
	}
	for j := 0; j < res.Intervals; j++ {
		start := j * inst.Gamma
		end := min(start+inst.Gamma-1, inst.T-1)
		pos := inst.Traj.PosAtSlotStart(start)
		frames = append(frames, &wire.Probe{Interval: j, Start: start, End: end, SinkX: pos.X, SinkY: pos.Y})
		copies = append(copies, n)
		regs := 0
		for i := 0; i < n; i++ {
			if !regsIn[[2]int{i, j}] {
				frames = append(frames, &wire.Ack{Kind: wire.AckDecline, Interval: j, Sensor: i})
				copies = append(copies, 1)
				continue
			}
			regs++
			s := &inst.Sensors[i]
			frames = append(frames, wire.RegisterAck(j, 0, online.Registration{
				Sensor: i, Budget: s.Budget, DataLeft: inst.DataCapOf(i),
				ClipStart: max(s.Start, start), ClipEnd: min(s.End, end),
			}))
			copies = append(copies, 1)
		}
		if regs == 0 {
			continue
		}
		var pairs []wire.Assign
		confirmed := make(map[int]bool)
		for slot := start; slot <= end; slot++ {
			if owner := res.Alloc.SlotOwner[slot]; owner >= 0 {
				pairs = append(pairs, wire.Assign{Slot: slot, Sensor: owner})
				if !confirmed[owner] {
					confirmed[owner] = true
					frames = append(frames, &wire.Ack{Kind: wire.AckConfirm, Interval: j, Sensor: owner})
					copies = append(copies, 1)
				}
			}
		}
		frames = append(frames, &wire.Schedule{Interval: j, Pairs: pairs}, &wire.Finish{Interval: j})
		copies = append(copies, regs, regs)
	}
	return frames, copies
}

// codecStats is one outside pass of wire.AppendFrame and wire.Decode
// over a tour's frame mix.
type codecStats struct {
	encodeNs, decodeNs float64 // per frame
	controlBytes       float64 // bytes on the wire per tour
}

func codecPass(frames []wire.Msg, copies []int) (codecStats, error) {
	var st codecStats
	if len(frames) == 0 {
		return st, nil
	}
	buf := make([]byte, 0, 64)
	start := time.Now()
	for _, m := range frames {
		var err error
		if buf, err = wire.AppendFrame(buf[:0], m); err != nil {
			return st, fmt.Errorf("encode %T: %w", m, err)
		}
	}
	st.encodeNs = float64(time.Since(start).Nanoseconds()) / float64(len(frames))

	var all []byte
	offs := make([]int, len(frames))
	for k, m := range frames {
		offs[k] = len(all)
		var err error
		if all, err = wire.AppendFrame(all, m); err != nil {
			return st, err
		}
		st.controlBytes += float64((len(all) - offs[k]) * copies[k])
	}
	start = time.Now()
	for k, off := range offs {
		n := int(binary.BigEndian.Uint32(all[off:]))
		m, err := wire.Decode(all[off+4 : off+4+n])
		if err != nil {
			return st, fmt.Errorf("decode frame %d: %w", k, err)
		}
		if m.Type() != frames[k].Type() {
			return st, fmt.Errorf("frame %d decoded as %v, encoded as %v", k, m.Type(), frames[k].Type())
		}
	}
	st.decodeNs = float64(time.Since(start).Nanoseconds()) / float64(len(frames))
	return st, nil
}

// walStats is the journal layer measured around a finished tour.
type walStats struct {
	appends []time.Duration // one per replayed Commit, fsync included
	bytes   float64
	replay  time.Duration
}

// walPass reads the tour's journal back with wal.Scan, times wal.Open
// on it (the replay a restarted sink performs), and times wal.Append of
// the same Commit records into a fresh journal in the same directory.
func walPass(path string) (walStats, error) {
	var st walStats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	recs, valid, err := wal.Scan(f)
	f.Close()
	if err != nil {
		return st, fmt.Errorf("scan %s: %w", path, err)
	}
	st.bytes = float64(valid)

	start := time.Now()
	log, replayed, err := wal.Open(path)
	st.replay = time.Since(start)
	if err != nil {
		return st, err
	}
	log.Close()
	if len(replayed) != len(recs) {
		return st, fmt.Errorf("wal.Open replayed %d records, Scan read %d", len(replayed), len(recs))
	}

	copyPath := path + ".append"
	out, _, err := wal.Open(copyPath)
	if err != nil {
		return st, err
	}
	defer os.Remove(copyPath)
	defer out.Close()
	for _, r := range recs {
		c, ok := r.(wal.Commit)
		if !ok {
			continue
		}
		start := time.Now()
		if err := out.Append(c); err != nil {
			return st, fmt.Errorf("append commit %d: %w", c.Interval, err)
		}
		st.appends = append(st.appends, time.Since(start))
	}
	return st, nil
}
