package joinbase

import (
	"time"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// PassDriver schedules a Base's disk join. It owns the one pass it runs,
// re-armed for every pass so its scratch is reused, times it
// (Lat.DiskChunk per step, Lat.DiskPass per pass) and traces it
// (pass_start, one pass_chunk per step, pass_io + pass_end), so PJoin and
// XJoin share one schedule and one trace shape.
//
// The byte budget is the one parameter. With a positive budget a pass is
// a background task: every call below advances it by one bounded step
// and it stays in flight between calls. With budget 0 each pass runs to
// completion inside the call that starts it — the same steps, unbounded
// and drained — and only Activate and Finish start one, so Pump is free.
type PassDriver struct {
	b      *Base
	lat    *obs.Lat
	budget int
	// done, if non-nil, runs after every completed pass (after its trace
	// closed); PJoin clears disk-pending marks and re-releases deferred
	// propagation here.
	done func(now stream.Time) error

	pass     ChunkPass
	inFlight bool
	start    time.Time
	// Provenance trace of the in-flight pass and the counters at its
	// start; maintained only when spans are on.
	trace              uint64
	ioBase             passIO
	examBase, joinBase int64
}

// NewPassDriver builds the driver for b's disk join. lat and done may be
// nil.
func NewPassDriver(b *Base, lat *obs.Lat, budget int, hooks PassHooks, done func(now stream.Time) error) *PassDriver {
	return &PassDriver{b: b, lat: lat, budget: budget, done: done, pass: newChunkPass(b, hooks, budget)}
}

// InFlight reports whether a pass has started and not yet completed.
func (d *PassDriver) InFlight() bool { return d.inFlight }

// Pump gives a budgeted pass one step of background progress, starting
// a pass if left-over work exists; operators call it after every input
// item and on idle ticks.
func (d *PassDriver) Pump(now stream.Time) error {
	if d.budget <= 0 {
		return nil
	}
	return d.step(now)
}

// Activate is a scheduled disk join (DiskJoinActivate, StreamEmpty,
// propagation that must first finish the left-over joins): one step of a
// budgeted pass, a whole pass otherwise.
func (d *PassDriver) Activate(now stream.Time) error {
	if err := d.step(now); err != nil || d.budget > 0 {
		return err
	}
	return d.drain(now)
}

// Finish is the end-of-stream clean-up: complete the pass in flight,
// then run one final pass over whatever is still owed.
func (d *PassDriver) Finish(now stream.Time) error {
	if err := d.drain(now); err != nil {
		return err
	}
	if err := d.step(now); err != nil {
		return err
	}
	return d.drain(now)
}

// drain steps the in-flight pass to completion.
func (d *PassDriver) drain(now stream.Time) error {
	for d.inFlight {
		if err := d.step(now); err != nil {
			return err
		}
	}
	return nil
}

// step advances the disk join by one step, first starting a pass if none
// is in flight and the state has left-over work.
func (d *PassDriver) step(now stream.Time) error {
	b := d.b
	if !d.inFlight {
		if !b.NeedsPass() {
			return nil
		}
		d.pass.start()
		d.inFlight = true
		d.start = time.Now()
		d.beginPassTrace(now)
	}
	spansOn := b.Obs.Enabled()
	var stepIO passIO
	if spansOn {
		stepIO = d.passIO()
	}
	stepExam, stepJoin := b.M.DiskExamined, b.M.DiskJoins
	stepStart := time.Now()
	done, err := d.pass.Step(now)
	if err != nil {
		d.inFlight = false
		d.pass.release()
		return err
	}
	if !done {
		stepWall := time.Since(stepStart).Nanoseconds()
		d.lat.RecordDiskChunk(stepWall)
		if spansOn {
			// One pass_chunk span per Metrics.DiskChunks step (the call
			// that only finds the pass complete is neither), so
			// pjointrace can show how a pass's work spread across
			// event-loop pumps.
			io := d.passIO()
			b.Obs.Span(span.KindPassChunk, d.trace, now, -1,
				b.M.DiskExamined-stepExam, b.M.DiskJoins-stepJoin, io.bytes-stepIO.bytes, stepWall)
		}
		//pjoin:allow spanpair a pass stays open across steps by design; the completing step closes it, EOS-close covers aborts
		return nil
	}
	d.inFlight = false
	passWall := time.Since(d.start).Nanoseconds()
	d.lat.RecordDiskPass(passWall)
	d.endPassTrace(now, passWall)
	if d.done != nil {
		return d.done(now)
	}
	return nil
}

// passIO is the spill-side traffic picture a pass trace attributes: read
// operations (seeks + chunk continuations) and bytes read, summed over
// both states.
type passIO struct {
	reads, bytes int64
}

func (d *PassDriver) passIO() passIO {
	var p passIO
	for _, st := range d.b.States {
		if io, err := st.IOStats(); err == nil {
			p.reads += io.ReadOps + io.ChunkReads
			p.bytes += io.BytesRead
		}
	}
	return p
}

// beginPassTrace opens a provenance trace for a disk pass; pass_start
// N = 1 marks a budgeted (resumable) pass. No-op with spans disabled, so
// the call site stays unconditional.
//
//pjoin:span begin pass
func (d *PassDriver) beginPassTrace(now stream.Time) {
	if !d.b.Obs.Enabled() {
		return
	}
	d.trace = span.NewID()
	d.ioBase = d.passIO()
	d.examBase, d.joinBase = d.b.M.DiskExamined, d.b.M.DiskJoins
	var n int64
	if d.budget > 0 {
		n = 1
	}
	d.b.Obs.Span(span.KindPassStart, d.trace, now, -1, n, 0, 0, 0)
}

// endPassTrace closes a pass trace: one pass_io span attributing the
// spill traffic the pass caused, one pass_end span with the pass's
// work totals and wall time. No-op with spans disabled.
//
//pjoin:span end pass
func (d *PassDriver) endPassTrace(now stream.Time, wall int64) {
	if !d.b.Obs.Enabled() {
		return
	}
	io := d.passIO()
	d.b.Obs.Span(span.KindPassIO, d.trace, now, -1,
		io.reads-d.ioBase.reads, 0, io.bytes-d.ioBase.bytes, 0)
	d.b.Obs.Span(span.KindPassEnd, d.trace, now, -1,
		d.b.M.DiskExamined-d.examBase, d.b.M.DiskJoins-d.joinBase,
		io.bytes-d.ioBase.bytes, wall)
}
