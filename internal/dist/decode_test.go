package dist

import (
	"reflect"
	"runtime"
	"testing"

	"kmgraph/internal/core"
	"kmgraph/internal/wire"
)

// maxDecodeAlloc is what decoding a frame of a few dozen bytes may
// allocate: enough for the decoded header, far below any count-sized
// slice.
const maxDecodeAlloc = 64 << 10

// allocDuring returns the bytes allocated while decode runs and the
// error it returns.
func allocDuring(decode func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestReadSpansBoundsCountByBytesPresent pins the span decoder's trust
// boundary: a heartbeat whose span count claims a full batch but carries
// no span bytes is rejected before the batch is allocated.
func TestReadSpansBoundsCountByBytesPresent(t *testing.T) {
	body := wire.AppendUvarint(wire.AppendUvarint(wire.AppendU64(nil, 7), 100), maxSpanDecode)
	alloc, err := allocDuring(func() error {
		_, _, _, err := decodeHeartbeat(body)
		return err
	})
	if err == nil {
		t.Fatalf("%d-byte heartbeat claiming %d spans decoded without error", len(body), maxSpanDecode)
	}
	if alloc > 1<<20 {
		t.Errorf("decoding a %d-byte heartbeat allocated %d bytes, want < 1 MB", len(body), alloc)
	}
}

// TestDecodeJobBoundsWorkersByBytesPresent: a job frame whose worker
// count claims the maximum but carries no worker bytes is rejected
// before the worker list is allocated.
func TestDecodeJobBoundsWorkersByBytesPresent(t *testing.T) {
	j := &Job{Kind: KindConnectivity, Conn: core.Config{K: 4}}
	body := AppendJob(nil, j) // ends in the one-byte worker count 0
	body = wire.AppendUvarint(body[:len(body)-1], maxWorkers)
	alloc, err := allocDuring(func() error {
		_, err := DecodeJob(body)
		return err
	})
	if err == nil {
		t.Fatalf("%d-byte job claiming %d workers decoded without error", len(body), maxWorkers)
	}
	if alloc > maxDecodeAlloc {
		t.Errorf("decoding a %d-byte job allocated %d bytes, want < %d", len(body), alloc, maxDecodeAlloc)
	}
}

// TestReadFlightBoundsCountsByBytesPresent: neither a flight snapshot's
// record count nor a record's link count may size an allocation the
// bytes present cannot fill, and a count that overflows int is corrupt,
// not a panic.
func TestReadFlightBoundsCountsByBytesPresent(t *testing.T) {
	oneRecord := wire.AppendUvarint(nil, 1)
	oneRecord = wire.AppendUvarint(oneRecord, 9) // seq
	oneRecord = wire.AppendVarint(oneRecord, 0)  // wait
	oneRecord = wire.AppendBytes(oneRecord, nil) // err
	cases := map[string][]byte{
		"records":          wire.AppendUvarint(nil, maxFlightRecords),
		"links":            wire.AppendUvarint(oneRecord, maxWorkers),
		"negative-records": wire.AppendUvarint(nil, 1<<63),
		"negative-links":   wire.AppendUvarint(oneRecord, 1<<63),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			alloc, err := allocDuring(func() error {
				_, err := readFlight(wire.NewReader(body))
				return err
			})
			if err == nil {
				t.Fatalf("%d-byte flight snapshot decoded without error", len(body))
			}
			if alloc > maxDecodeAlloc {
				t.Errorf("decoding a %d-byte flight snapshot allocated %d bytes, want < %d",
					len(body), alloc, maxDecodeAlloc)
			}
		})
	}
}

// TestReadSpansRejectsNegativeCount: a span count that overflows int is
// corrupt input, not a panic in make.
func TestReadSpansRejectsNegativeCount(t *testing.T) {
	if _, err := readSpans(wire.NewReader(wire.AppendUvarint(nil, 1<<63))); err == nil {
		t.Fatal("span count 2^63 decoded without error")
	}
}

// FuzzDecodeJob drives arbitrary bytes through the job decoder a worker
// runs on untrusted coordinator input. It must never panic; a job it
// accepts must be a contiguous cover of [0, K) that re-encodes to the
// same job.
func FuzzDecodeJob(f *testing.F) {
	j := &Job{
		ClusterID: 3, TraceID: 5, Kind: KindMST, Source: "gnm:100:300:1", Index: 1,
		Workers: []WorkerSpec{{Addr: "a:1", Lo: 0, Hi: 2}, {Addr: "b:2", Lo: 2, Hi: 4}},
	}
	j.MST.K, j.MST.Seed, j.MST.StrongOutput = 4, 7, true
	valid := AppendJob(nil, j)
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add(append(valid[:len(valid):len(valid)], 0))
	f.Add(AppendJob(nil, &Job{Kind: KindConnectivity, Conn: core.Config{K: 1},
		Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 1}}}))
	noWorkers := AppendJob(nil, &Job{Conn: core.Config{K: 4}})
	f.Add(wire.AppendUvarint(noWorkers[:len(noWorkers)-1], maxWorkers))
	f.Add([]byte{specVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeJob(data)
		if err != nil {
			return
		}
		next := 0
		for _, w := range got.Workers {
			if w.Lo != next || w.Hi <= w.Lo {
				t.Fatalf("DecodeJob accepted a non-contiguous cover: %+v", got.Workers)
			}
			next = w.Hi
		}
		if next != got.config().K || got.Index < 0 || got.Index >= len(got.Workers) {
			t.Fatalf("DecodeJob accepted an invalid job: %+v", got)
		}
		again, err := DecodeJob(AppendJob(nil, got))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("re-encoded job decoded to %+v, %v; want %+v", again, err, got)
		}
	})
}
