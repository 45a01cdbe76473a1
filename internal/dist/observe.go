// Coordinator-side observability state: the assembled cross-process
// job trace and the flight-recorder log backing -flight-dump.

package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
)

// maxTraceSpansPerWorker bounds one worker's accumulated span stream
// (phase counts are O(log n); the cap only guards a runaway engine).
const maxTraceSpansPerWorker = 1 << 16

// JobTrace collects the phase spans workers stream back on their
// control connections and assembles them into one multi-pid Chrome
// trace. Hand one to CoordOptions.Trace; after a successful run,
// Assemble returns the trace of the attempt that succeeded (each retry
// resets the collection, so a recovered run traces its clean replay).
type JobTrace struct {
	mu      sync.Mutex
	job     string
	traceID uint64
	workers []telemetry.WorkerSpans
}

// reset starts a fresh attempt: one empty span stream per worker.
func (t *JobTrace) reset(job *Job, ranges [][2]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.job = job.Kind.String()
	t.traceID = job.TraceID
	t.workers = make([]telemetry.WorkerSpans, len(ranges))
	for i, r := range ranges {
		t.workers[i] = telemetry.WorkerSpans{Index: i, Lo: r[0], Hi: r[1]}
	}
}

// add appends one worker's span batch (heartbeat or result tail).
func (t *JobTrace) add(idx int, spans []telemetry.PhaseSpan) {
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.workers) {
		return
	}
	w := &t.workers[idx]
	if room := maxTraceSpansPerWorker - len(w.Spans); room < len(spans) {
		spans = spans[:max(room, 0)]
	}
	w.Spans = append(w.Spans, spans...)
}

// TraceID returns the ID the coordinator minted into the job spec.
func (t *JobTrace) TraceID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// WorkerSpans returns a copy of the per-worker span streams, spans in
// time order (batches can arrive slightly out of order across the
// heartbeat/result boundary).
func (t *JobTrace) WorkerSpans() []telemetry.WorkerSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]telemetry.WorkerSpans, len(t.workers))
	for i, w := range t.workers {
		out[i] = w
		out[i].Spans = append([]telemetry.PhaseSpan(nil), w.Spans...)
		sort.SliceStable(out[i].Spans, func(a, b int) bool {
			return out[i].Spans[a].StartUs < out[i].Spans[b].StartUs
		})
	}
	return out
}

// Assemble builds the multi-pid Chrome trace (pid = worker index).
func (t *JobTrace) Assemble() telemetry.Trace {
	ws := t.WorkerSpans()
	t.mu.Lock()
	job, id := t.job, t.traceID
	t.mu.Unlock()
	return telemetry.AssembleDistTrace(job, id, ws)
}

// FlightLog is the coordinator's post-mortem state for one distributed
// run: a flight recorder per control link (every frame a worker sends
// is one "round" of that link) and any remote snapshot a worker's
// error frame carried. Hand one to CoordOptions.Flight; after a failed
// run, Dump writes one JSON file per populated side for -flight-dump.
type FlightLog struct {
	mu      sync.Mutex
	control map[int]*transport.FlightRecorder
	remote  map[int][]transport.RoundFlight
}

// reset starts a fresh attempt.
func (l *FlightLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.control = make(map[int]*transport.FlightRecorder)
	l.remote = make(map[int][]transport.RoundFlight)
}

// recorder returns (creating if needed) worker idx's control-link
// recorder.
func (l *FlightLog) recorder(idx int) *transport.FlightRecorder {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.control == nil {
		l.control = make(map[int]*transport.FlightRecorder)
	}
	r, ok := l.control[idx]
	if !ok {
		r = transport.NewFlightRecorder(0)
		l.control[idx] = r
	}
	return r
}

// setRemote stores the flight snapshot worker idx's error frame carried.
func (l *FlightLog) setRemote(idx int, fl []transport.RoundFlight) {
	if len(fl) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.remote == nil {
		l.remote = make(map[int][]transport.RoundFlight)
	}
	l.remote[idx] = fl
}

// FlightDump is the JSON schema of one -flight-dump file.
type FlightDump struct {
	// Side is "coordinator" (our view of the worker's control link) or
	// "worker" (the snapshot the worker's error frame carried — its
	// engine's view of its peer links).
	Side   string                  `json:"side"`
	Worker int                     `json:"worker"`
	Rounds []transport.RoundFlight `json:"rounds"`
}

// Dump writes the log as JSON files under dir (created if needed):
// coordinator-worker-<i>.json for each control link and
// remote-worker-<i>.json for each worker-reported snapshot.
func (l *FlightLog) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	type entry struct {
		name string
		d    FlightDump
	}
	var entries []entry
	for idx, r := range l.control {
		//kmvet:ignore each dump writes its own idx-keyed file; write order immaterial
		entries = append(entries, entry{
			name: fmt.Sprintf("coordinator-worker-%d.json", idx),
			d:    FlightDump{Side: "coordinator", Worker: idx, Rounds: r.Snapshot()},
		})
	}
	for idx, fl := range l.remote {
		//kmvet:ignore each dump writes its own idx-keyed file; write order immaterial
		entries = append(entries, entry{
			name: fmt.Sprintf("remote-worker-%d.json", idx),
			d:    FlightDump{Side: "worker", Worker: idx, Rounds: fl},
		})
	}
	l.mu.Unlock()
	for _, e := range entries {
		b, err := json.MarshalIndent(e.d, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
