package dist

import (
	"runtime"
	"testing"

	"kmgraph/internal/wire"
)

// TestReadSpansBoundsCountByBytesPresent pins the span decoder's trust
// boundary: a heartbeat whose span count claims a full batch but carries
// no span bytes is rejected before the batch is allocated.
func TestReadSpansBoundsCountByBytesPresent(t *testing.T) {
	body := wire.AppendUvarint(wire.AppendUvarint(wire.AppendU64(nil, 7), 100), maxSpanDecode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := decodeHeartbeat(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%d-byte heartbeat claiming %d spans decoded without error", len(body), maxSpanDecode)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("decoding a %d-byte heartbeat allocated %d bytes, want < 1 MB", len(body), alloc)
	}
}
