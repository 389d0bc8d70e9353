package server

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// heapFloor is the heap size below which the daemon does not collect.
// Its resident state is a few MB of cached models, while every request
// leaves garbage: ~30 KB for a warm assessment (some 20 KB of it the
// decoded document, the spec objects FromDocument validates it into and
// the canonical document Fingerprint hashes), a chart-level model for a
// cold one, and the live loop's batches, rebuilds and re-plans. At the
// runtime's 4 MB minimum heap goal that is a collection every
// hundred-odd warm requests. Model builds no longer pace the collector:
// with the floor off (GOGC=99) a cold-corpus round is unchanged, while
// drift-replan's op_p90_ms goes 0.40–0.53 → 0.80–0.81 ms and a
// warm-whatif round takes 17 % longer, for 44 → 15 MB of peak RSS.
// A percentage cannot express a floor (a fixed high GOGC would multiply
// large heaps as well), so GOGC is re-derived after every collection from
// what the pacer will use — goal = live + (live + stacks +
// globals)·GOGC/100 — to put the next goal at heapFloor while the live
// heap is under half of it, and is the default 100 from there on. The
// runtime's minimum goal scales with GOGC (4 MB at 100), so floorGOGC
// already yields heapFloor for an empty heap and anything above it would
// overshoot.
const (
	heapFloor = 32 << 20
	floorGOGC = heapFloor / (4 << 20) * 100
)

var heapFloorOnce sync.Once

// gcCycle carries the finalizer that runs after each collection; a
// finalizer needs an object with a pointer in it.
type gcCycle struct{ _ *int }

func holdHeapFloor() {
	if prev := debug.SetGCPercent(100); prev != 100 {
		debug.SetGCPercent(prev) // GOGC was set for this process: leave pacing alone
		return
	}
	m := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/scan/stack:bytes"},
		{Name: "/gc/scan/globals:bytes"},
	}
	var afterGC func(*gcCycle)
	afterGC = func(*gcCycle) {
		metrics.Read(m)
		live := m[0].Value.Uint64()
		work := live + m[1].Value.Uint64() + m[2].Value.Uint64()
		pct := 100
		if live < heapFloor/2 && work > 0 {
			pct = min(max(int((heapFloor-live)*100/work), 100), floorGOGC)
		}
		debug.SetGCPercent(pct)
		runtime.SetFinalizer(new(gcCycle), afterGC)
	}
	afterGC(nil)
}
