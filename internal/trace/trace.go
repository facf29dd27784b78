// Package trace is a lightweight, allocation-conscious event tracer for
// the Phish runtime: a fixed-size ring buffer per participant that records
// scheduling events (spawns, steals, migrations, crashes, redos) with
// nanosecond timestamps. It exists for debugging distributed-protocol
// races — the kind of bug where the only witness is the interleaving —
// and for the timeline renderings in the examples.
//
// Tracing is off by default and costs one atomic load per call site when
// disabled.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phish/internal/types"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	EvSpawn Kind = iota
	EvExecute
	EvStealRequest
	EvStealGrant
	EvStealFail
	EvStealAdopt
	EvSynch
	EvMigrateOut
	EvMigrateIn
	EvRedo
	EvRegister
	EvUnregister
	EvCrash
	EvShutdown
	EvPeerGone
	EvRetransmit
	EvRecover
	EvJournalReplay
	EvPreempt
	EvCkpt
	kindCount
)

var kindNames = [kindCount]string{
	"spawn", "execute", "steal-req", "steal-grant", "steal-fail",
	"steal-adopt", "synch", "migrate-out", "migrate-in", "redo",
	"register", "unregister", "crash", "shutdown",
	"peer-gone", "retransmit", "recover", "journal-replay",
	"preempt", "ckpt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At     time.Time
	Worker types.WorkerID
	Kind   Kind
	Task   types.TaskID
	Peer   types.WorkerID
	Note   string
}

func (e Event) String() string {
	s := fmt.Sprintf("%s w%d %s", e.At.Format("15:04:05.000000"), e.Worker, e.Kind)
	if !e.Task.Zero() {
		s += " " + e.Task.String()
	}
	if e.Peer != 0 && e.Peer != e.Worker {
		s += fmt.Sprintf(" peer=w%d", e.Peer)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Buffer is a per-participant ring of events. The zero value is disabled;
// call Enable (or NewBuffer) first. Safe for concurrent use.
type Buffer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	ring    []Event
	next    int
	total   uint64
	dropped uint64
}

// NewBuffer returns an enabled buffer holding the last n events.
func NewBuffer(n int) *Buffer {
	b := &Buffer{}
	b.Enable(n)
	return b
}

// Enable turns tracing on with capacity n (subsequent Enable calls reset
// the ring).
func (b *Buffer) Enable(n int) {
	if n <= 0 {
		n = 4096
	}
	b.mu.Lock()
	b.ring = make([]Event, n)
	b.next = 0
	b.total = 0
	b.dropped = 0
	b.mu.Unlock()
	b.enabled.Store(true)
}

// Enabled reports whether Add records anything.
func (b *Buffer) Enabled() bool { return b != nil && b.enabled.Load() }

// Add records an event if tracing is enabled. Callers on hot paths should
// guard with Enabled() to skip argument construction.
func (b *Buffer) Add(ev Event) {
	if !b.Enabled() {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	b.mu.Lock()
	if b.total >= uint64(len(b.ring)) {
		// The slot being overwritten held the oldest retained event: the
		// ring silently forgets it, so count the loss where a scrape can
		// see it instead of letting truncated timelines masquerade as
		// complete ones.
		b.dropped++
	}
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	b.total++
	b.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := int(b.total)
	if n > len(b.ring) {
		n = len(b.ring)
	}
	out := make([]Event, 0, n)
	start := b.next - n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Total returns how many events were ever added (including overwritten
// ones).
func (b *Buffer) Total() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Dropped returns how many events were overwritten before anyone read
// them — the ring's loss counter. Nil-safe.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Merge interleaves several buffers' events by timestamp — one timeline
// for a whole job.
func Merge(bufs ...*Buffer) []Event {
	var all []Event
	for _, b := range bufs {
		all = append(all, b.Events()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	return all
}

// Render formats a timeline for humans.
func Render(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Counts tallies events by kind (for tests and summaries).
func Counts(events []Event) map[Kind]int {
	m := make(map[Kind]int)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}
