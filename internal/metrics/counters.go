// Package metrics is the sampling-based observability layer shared by
// the deterministic simulator (internal/sim) and the concurrent runtime
// (internal/runtime).
//
// The design goal is zero overhead when disabled: every entry point is
// safe on a nil *Recorder / nil *Bank receiver and compiles down to a
// single predictable nil test, so engines call the recorder
// unconditionally on their hot paths. When enabled, the per-message
// cost is one increment into a cache-line-padded, single-writer counter
// bank (one per simulator shard, merged lock-free at the round barrier
// where only one goroutine runs) or one atomic increment (concurrent
// runtime). Everything more expensive — invariant probes, quantile
// estimation, event export — happens at the sampling cadence, never per
// message.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// Counter identifies one monotonic event counter in a Bank.
type Counter int

const (
	// MsgsSent counts data messages pushed by protocol sends.
	MsgsSent Counter = iota
	// MsgsDelivered counts messages (data and control) enqueued into a
	// destination inbox.
	MsgsDelivered
	// MsgsLost counts messages destroyed in flight: dead or silenced
	// links, crashed destinations, or back-pressure overflow in the
	// concurrent runtime.
	MsgsLost
	// MsgsDropped counts messages vetoed by a fault interceptor (loss
	// or reorder injection).
	MsgsDropped
	// MsgsCorrupted counts payloads corrupted in flight by the bit-flip
	// injector.
	MsgsCorrupted
	// Keepalives counts keepalive/probe control messages emitted by the
	// failure-detection layer.
	Keepalives
	// FreeListHits counts pooled messages served from a free list. The
	// simulator pools only what is not one data message per sender per
	// round — keepalives and probes, interceptor copies, copies held
	// for hung nodes, restored in-flight messages — so a run without a
	// detector or interceptor counts none.
	FreeListHits
	// FreeListMisses counts pooled messages that had to go to the heap
	// (free list empty).
	FreeListMisses
	// Suspicions counts failure-detector alive→suspected transitions.
	Suspicions
	// Evictions counts links evicted from a node's live set on detector
	// suspicion (protocol OnLinkFailure driven by the detector).
	Evictions
	// Reintegrations counts suspected neighbors welcomed back after
	// being heard from again.
	Reintegrations

	numCounters int = iota
)

// counterNames are the stable wire names, indexed by Counter, used in
// JSON snapshots and Prometheus exposition.
var counterNames = [numCounters]string{
	"msgs_sent",
	"msgs_delivered",
	"msgs_lost",
	"msgs_dropped",
	"msgs_corrupted",
	"keepalives",
	"freelist_hits",
	"freelist_misses",
	"suspicions",
	"evictions",
	"reintegrations",
}

func (c Counter) String() string {
	if c < 0 || int(c) >= numCounters {
		return fmt.Sprintf("Counter(%d)", int(c))
	}
	return counterNames[c]
}

// bankPad rounds a Bank up to a whole number of 64-byte cache lines so
// adjacent per-shard banks in the recorder's slice never share a line —
// shard workers increment concurrently during phase 1 and false sharing
// would serialize them through the coherence protocol.
const bankPad = (64 - (numCounters*8)%64) % 64

// Bank is a single-writer counter bank: plain uint64 slots, no atomics.
// The simulator gives each shard its own bank (only the owning worker
// writes during phase 1) and reads them only at round barriers, where a
// single goroutine runs — so the merge in Recorder.Counters is
// lock-free by construction, not by synchronization.
//
// All methods are nil-receiver-safe no-ops, so call sites need no
// enabled/disabled branching of their own.
type Bank struct {
	c [numCounters]uint64
	_ [bankPad]byte
}

// Inc adds one to counter c. No-op on a nil bank.
func (b *Bank) Inc(c Counter) {
	if b != nil {
		b.c[c]++
	}
}

// Add adds n to counter c. No-op on a nil bank.
func (b *Bank) Add(c Counter, n uint64) {
	if b != nil {
		b.c[c] += n
	}
}

// Load returns counter c's value (0 on a nil bank).
func (b *Bank) Load(c Counter) uint64 {
	if b == nil {
		return 0
	}
	return b.c[c]
}

// Merge folds o's counters into b.
func (b *Bank) Merge(o *Bank) {
	if b == nil || o == nil {
		return
	}
	for i := range b.c {
		b.c[i] += o.c[i]
	}
}

// padded is one atomic counter on its own cache line.
type padded struct {
	v atomic.Uint64
	_ [56]byte
}

// AtomicBank is the concurrent-runtime counterpart of Bank: one padded
// atomic per counter, incremented from many goroutines (the per-node
// loops and the delivery path) and read by the monitor at sampling
// time.
type AtomicBank struct {
	c [numCounters]padded
}

// Inc atomically adds one to counter c. No-op on a nil bank.
func (b *AtomicBank) Inc(c Counter) {
	if b != nil {
		b.c[c].v.Add(1)
	}
}

// Add atomically adds n to counter c. No-op on a nil bank.
func (b *AtomicBank) Add(c Counter, n uint64) {
	if b != nil {
		b.c[c].v.Add(n)
	}
}

// Load returns counter c's value (0 on a nil bank).
func (b *AtomicBank) Load(c Counter) uint64 {
	if b == nil {
		return 0
	}
	return b.c[c].v.Load()
}

// Snapshot is a merged point-in-time view of every counter across all
// banks. It marshals as a JSON object with the stable counter names in
// declaration order.
type Snapshot [numCounters]uint64

// Get returns counter c's value.
func (s Snapshot) Get(c Counter) uint64 { return s[c] }

// MarshalJSON writes the counters as an object in declaration order.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%d", counterNames[i], v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON accepts the object form written by MarshalJSON,
// ignoring unknown counter names (forward compatibility).
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*s = Snapshot{}
	for i, name := range counterNames {
		s[i] = m[name]
	}
	return nil
}
