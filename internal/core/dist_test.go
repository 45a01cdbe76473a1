package core

import (
	"runtime"
	"testing"

	"kmgraph/internal/wire"
)

// allocDuring reports the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadOutputBoundsCountsByBytesPresent pins the decoder's trust
// boundary: a short frame whose count field claims millions of items is
// rejected before anything is sized from that count.
func TestReadOutputBoundsCountsByBytesPresent(t *testing.T) {
	const claimed = 1 << 22
	// A connectivity output with no labels and zero scalars whose
	// phase-rounds list claims 4M entries.
	phaseRounds := wire.AppendUvarint([]byte{outputConn}, 0)
	phaseRounds = append(phaseRounds, 0, 0, 0, 0) // failures, phases, collapse iters, protocol count
	phaseRounds = wire.AppendBool(phaseRounds, true)
	phaseRounds = wire.AppendUvarint(phaseRounds, claimed)
	cases := map[string][]byte{
		"phase-rounds": phaseRounds,
		// A connectivity output whose label map claims 4M entries.
		"labels": wire.AppendUvarint([]byte{outputConn}, claimed),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			alloc := allocDuring(func() { _, err = ReadOutput(wire.NewReader(frame)) })
			if err == nil {
				t.Fatalf("%d-byte frame claiming %d items decoded without error", len(frame), claimed)
			}
			if alloc > 1<<20 {
				t.Errorf("decoding a %d-byte frame allocated %d bytes, want < 1 MB", len(frame), alloc)
			}
		})
	}
}
