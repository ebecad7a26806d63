package main

import "time"

// spanID names one kind of span. Every span but spanOp wraps a single call
// the harness makes into a layer; spanOp is the root of one unit of work
// (one transaction, one window round, one file op), so the self time of
// the root is the harness's own share.
type spanID int

const (
	spanOp spanID = iota
	spanNetAlloc
	spanNetXmit
	spanNetPoll
	spanNetPopFree
	spanNetEnqueue
	spanNetDrain
	spanMemWrite
	spanMemRead
	spanCapsGrant
	spanVfsRead
	spanVfsWrite
	spanVfsStat
	spanVfsCreate
	spanVfsRename
	spanVfsUnlink
	spanVfsSync
	numSpans
)

// spanMetric is the per-layer metric each span's self time reports as.
var spanMetric = [numSpans]string{
	spanOp:         "bench.harness_us",
	spanNetAlloc:   "netstack.alloc_us",
	spanNetXmit:    "netstack.xmit_us",
	spanNetPoll:    "netstack.poll_us",
	spanNetPopFree: "netstack.pop_free_us",
	spanNetEnqueue: "netstack.enqueue_us",
	spanNetDrain:   "netstack.drain_us",
	spanMemWrite:   "mem.as_write_us",
	spanMemRead:    "mem.as_read_us",
	spanCapsGrant:  "caps.grant_us",
	spanVfsRead:    "vfs.read_us",
	spanVfsWrite:   "vfs.write_us",
	spanVfsStat:    "vfs.stat_us",
	spanVfsCreate:  "vfs.create_us",
	spanVfsRename:  "vfs.rename_us",
	spanVfsUnlink:  "vfs.unlink_us",
	spanVfsSync:    "vfs.sync_us",
}

// epoch anchors the monotonic clock every span and latency reads.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// Tracer records spans for one harness thread. It keeps an open-span stack
// and, per span kind, the count and the summed self time (duration minus
// the part covered by child spans). Everything is fixed-size: recording
// never allocates. A nil *Tracer is the untraced run; its methods return
// at once.
type Tracer struct {
	stack [4]struct {
		id    spanID
		start int64
		child int64
	}
	depth int
	count [numSpans]uint64
	self  [numSpans]int64
}

// Begin opens a span.
func (tr *Tracer) Begin(id spanID) {
	if tr == nil {
		return
	}
	f := &tr.stack[tr.depth]
	f.id, f.child = id, 0
	tr.depth++
	f.start = nowNs()
}

// End closes the innermost open span.
func (tr *Tracer) End() {
	if tr == nil {
		return
	}
	end := nowNs()
	tr.depth--
	f := &tr.stack[tr.depth]
	dur := end - f.start
	tr.count[f.id]++
	tr.self[f.id] += dur - f.child
	if tr.depth > 0 {
		tr.stack[tr.depth-1].child += dur
	}
}

// Merge folds o's totals into tr.
func (tr *Tracer) Merge(o *Tracer) {
	for i := range tr.count {
		tr.count[i] += o.count[i]
		tr.self[i] += o.self[i]
	}
}

// SelfNs returns the summed self time of one span kind.
func (tr *Tracer) SelfNs(id spanID) int64 { return tr.self[id] }

// TotalNs returns the summed self time of every span: the traced time of
// all root spans, since self times partition each root's duration.
func (tr *Tracer) TotalNs() int64 {
	var s int64
	for _, v := range tr.self {
		s += v
	}
	return s
}
