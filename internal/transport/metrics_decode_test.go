package transport

import (
	"runtime"
	"testing"

	"kmgraph/internal/wire"
)

// TestReadMetricsBoundsKByBytesPresent pins the metrics decoder's trust
// boundary: a frame whose machine count claims a k×k link matrix it does
// not carry is rejected before the matrix is allocated.
func TestReadMetricsBoundsKByBytesPresent(t *testing.T) {
	const k = 1024
	body := wire.AppendUvarint(nil, k)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMetrics(wire.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%d-byte metrics claiming k=%d decoded without error", len(body), k)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("decoding %d bytes of metrics allocated %d bytes, want < 64 KB", len(body), alloc)
	}

	// An exact encoding still round-trips.
	m := NewMetrics(3)
	m.Rounds, m.LinkBits[0][2], m.SentMsgs[1] = 7, 99, 4
	m.Finish()
	got, err := ReadMetrics(wire.NewReader(AppendMetrics(nil, m)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 7 || got.LinkBits[0][2] != 99 || got.SentMsgs[1] != 4 {
		t.Errorf("round trip drifted: %+v", got)
	}
}
