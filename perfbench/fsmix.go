package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"

	"lxfi/internal/blockdev"
	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules"
	"lxfi/internal/modules/minixsim"
	"lxfi/internal/vfs"
)

// Shape of the fs-mix workload.
const (
	fsThreads   = 2
	fsFiles     = 256              // files per mount at the start
	fsSlots     = 2 * fsFiles      // name slots per mount (live + free)
	fsBand      = 32               // the live count stays within fsFiles±fsBand
	fsFileBytes = 2 * mem.PageSize // every file is two pages
	fsBudget    = 256              // global page-cache budget, in pages
	fsImages    = 64               // distinct seeded file images
	fsPlanOps   = 1 << 15          // ops per thread before the plan repeats
	sliceNs     = 1_000_000        // overlap accounting granularity
)

type fsOpKind uint8

const (
	opRead fsOpKind = iota
	opWrite
	opStat
	opRename
	opCreate
	opUnlink
	opSync
)

// fsMix is the op mix in percent, in fsOpKind order.
var fsMix = [...]int{35, 25, 10, 10, 8, 8, 4}

// fsOp is one planned file op. r selects the file among the live (or, for
// create, the free) slots at run time; img and page pick the payload.
type fsOp struct {
	kind fsOpKind
	page uint8
	img  uint8
	r    uint32
}

// buildPlan draws a thread's op sequence from rng. Creates and unlinks
// are steered so the live file count stays within fsFiles±fsBand, and the
// plan ends back at fsFiles live files, so it can repeat indefinitely.
func buildPlan(rng *rand.Rand) []fsOp {
	plan := make([]fsOp, 0, fsPlanOps+2*fsBand)
	live := fsFiles
	for len(plan) < fsPlanOps {
		x, k := rng.IntN(100), fsOpKind(0)
		for x >= fsMix[k] {
			x -= fsMix[k]
			k++
		}
		switch {
		case k == opCreate && live >= fsFiles+fsBand:
			k = opUnlink
		case k == opUnlink && live <= fsFiles-fsBand:
			k = opCreate
		}
		plan = append(plan, fsOp{kind: k, page: uint8(rng.IntN(2)), img: uint8(rng.IntN(fsImages)), r: rng.Uint32()})
		switch k {
		case opCreate:
			live++
		case opUnlink:
			live--
		}
	}
	for ; live > fsFiles; live-- {
		plan = append(plan, fsOp{kind: opUnlink, r: rng.Uint32()})
	}
	for ; live < fsFiles; live++ {
		plan = append(plan, fsOp{kind: opCreate, img: uint8(rng.IntN(fsImages)), r: rng.Uint32()})
	}
	return plan
}

// fsInputs is everything the seed decides for fs-mix, built before set-up.
type fsInputs struct {
	images [fsImages][]byte
	plans  [fsThreads][]fsOp
	init   [fsThreads][fsFiles]uint8 // image each initial file is filled with
	names  [fsThreads][fsSlots][2]string
	slices [fsThreads][]uint32
}

// newFSInputs builds the inputs, with overlap accounting for a window of
// up to sliceCap slices.
func newFSInputs(seed uint64, sliceCap int) *fsInputs {
	in := &fsInputs{}
	rng := rand.New(rand.NewPCG(seed, 0x66736d6978))
	for i := range in.images {
		img := make([]byte, fsFileBytes)
		for j := 0; j < len(img); j += 8 {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				img[j+b] = byte(v >> (8 * b))
			}
		}
		in.images[i] = img
	}
	for th := 0; th < fsThreads; th++ {
		prng := rand.New(rand.NewPCG(seed, uint64(th)+1))
		in.plans[th] = buildPlan(prng)
		for s := range in.init[th] {
			in.init[th][s] = uint8(prng.IntN(fsImages))
		}
		for s := range in.names[th] {
			in.names[th][s] = [2]string{fmt.Sprintf("/f%03d.a", s), fmt.Sprintf("/f%03d.b", s)}
		}
		in.slices[th] = make([]uint32, sliceCap)
	}
	return in
}

// fsThread is one client thread's state: its mount, its position in the
// plan, and the shadow model every read and stat is checked against.
type fsThread struct {
	th    *core.Thread
	sb    mem.Addr
	plan  []fsOp
	pos   int
	names *[fsSlots][2]string
	// Shadow model: which name variant each slot has, the live and free
	// slot sets, and the image each page of a live file holds.
	variant    [fsSlots]uint8
	live, free slotSet
	ver        [fsSlots][2]uint8
	slices     []uint32 // ops completed per sliceNs of the window
	err        error
}

// fsBench is a booted kernel with blockdev, vfs and minixsim, one mount
// per client thread, each on its own disk.
type fsBench struct {
	k      *kernel.Kernel
	bl     *blockdev.Layer
	v      *vfs.VFS
	in     *fsInputs
	thr    [fsThreads]*fsThread
	active int // threads the window runs (1 or 2)
}

func bootFS(mode core.Mode, in *fsInputs, active int) (bench, setupInfo, error) {
	var si setupInfo
	t0 := nowNs()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bl := blockdev.Init(k)
	v := vfs.Init(k, bl)
	b := &fsBench{k: k, bl: bl, v: v, in: in, active: active}
	ld := modules.NewLoaderWith(&modules.BootContext{K: k, Block: bl, FS: v})
	for i := range b.thr {
		b.thr[i] = &fsThread{th: k.Sys.NewThread(fmt.Sprintf("fsmix-%d", i)), plan: in.plans[i], names: &in.names[i],
			slices: in.slices[i]}
		bl.AddDisk(uint64(i+1), minixsim.DiskSectors)
	}
	tl := nowNs()
	_, err := ld.Load(b.thr[0].th, "minixsim")
	si.loadNs = nowNs() - tl
	if err != nil {
		k.Shutdown()
		return nil, si, fmt.Errorf("load minixsim: %w", err)
	}
	v.SetPageBudget(fsBudget)
	for i, ft := range b.thr {
		tm := nowNs()
		sb, err := v.Mount(ft.th, minixsim.FsID, uint64(i+1))
		si.mountNs = append(si.mountNs, nowNs()-tm)
		if err != nil {
			k.Shutdown()
			return nil, si, fmt.Errorf("mount disk %d: %w", i+1, err)
		}
		ft.sb = sb
		if err := b.populate(i); err != nil {
			k.Shutdown()
			return nil, si, err
		}
	}
	// Start from an empty page cache, so both mounts fill it at the same
	// pace. Populating leaves it full of the last mount's pages; a mount
	// with no pages of its own in the cache while the other mount's are
	// pinned by that mount's lock can have its in-use page evicted under
	// it by vfs.evictForBudget, which returns the freed page's poison to
	// the reader.
	for _, ft := range b.thr {
		b.v.DropCaches(ft.sb)
	}
	si.totalNs = nowNs() - t0
	return b, si, nil
}

// populate creates the thread's initial files, fills them with their
// seeded images and syncs the mount.
func (b *fsBench) populate(i int) error {
	ft, in := b.thr[i], b.in
	for s := 0; s < fsSlots; s++ {
		if s >= fsFiles {
			ft.free.add(uint16(s))
			continue
		}
		path := ft.names[s][0]
		if _, err := b.v.Create(ft.th, ft.sb, path); err != nil {
			return fmt.Errorf("populate %s: %w", path, err)
		}
		img := in.init[i][s]
		if _, err := b.v.Write(ft.th, ft.sb, path, 0, in.images[img]); err != nil {
			return fmt.Errorf("populate %s: %w", path, err)
		}
		ft.ver[s] = [2]uint8{img, img}
		ft.live.add(uint16(s))
	}
	return b.v.Sync(ft.th, ft.sb)
}

func (b *fsBench) sys() *core.System { return b.k.Sys }
func (b *fsBench) close()            { b.k.Shutdown() }

func (b *fsBench) counters(c *counters) {
	st := &b.v.Stats
	c.dcacheHits, c.dcacheMiss = st.DcacheHits.Load(), st.DcacheMiss.Load()
	c.pageFills, c.pageWrites, c.evictWrites = st.PageFills.Load(), st.PageWrites.Load(), st.EvictWrites.Load()
	c.bytesWritten = st.BytesWrited.Load()
	c.secReads, c.secWrites = b.bl.SectorIO()
}

// window runs the active threads concurrently, each on its own mount,
// until the deadline (or until each has run o.maxOps ops).
func (b *fsBench) window(o runOpts, p *Pass) error {
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	var start, deadline int64
	for i := 0; i < b.active; i++ {
		ft, tp := b.thr[i], p.thread(i)
		for j := range ft.slices {
			ft.slices[j] = 0
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o.trace {
				// The program's own flight recorder feeds the sampled
				// crossing-latency histogram; a thread's ring is enabled
				// on the goroutine that owns the thread.
				ft.th.EnableTrace()
			}
			<-startGate
			ft.err = b.run(ft, tp, o, start, deadline)
		}()
	}
	start = nowNs()
	deadline = start + int64(o.window)
	for i := 0; i < b.active; i++ {
		p.thread(i).begin(start, o.window)
	}
	close(startGate)
	wg.Wait()
	p.elapsedNs = nowNs() - start
	var err error
	for i := 0; i < b.active; i++ {
		if ft := b.thr[i]; ft.err != nil && err == nil {
			err = ft.err
		}
	}
	if b.active == 2 {
		n := int(p.elapsedNs / sliceNs)
		if n > len(b.thr[0].slices) {
			n = len(b.thr[0].slices)
		}
		both := 0
		for j := 0; j < n; j++ {
			if b.thr[0].slices[j] > 0 && b.thr[1].slices[j] > 0 {
				both++
			}
		}
		if n > 0 {
			p.overlap = float64(both) / float64(n)
		}
	}
	return err
}

// run is one client's closed loop: plan ops back to back, each checked
// against the shadow model. The first failed op ends the thread's run.
func (b *fsBench) run(ft *fsThread, tp *threadPass, o runOpts, start, deadline int64) error {
	v, t, sb, images := b.v, ft.th, ft.sb, &b.in.images
	tr := tp.tr
	for {
		op := ft.plan[ft.pos]
		if ft.pos++; ft.pos == len(ft.plan) {
			ft.pos = 0
		}
		tp.attempted++
		tr.Begin(spanOp)
		t0 := nowNs()
		var err error
		var moved uint64
		cls := clsMeta
		switch op.kind {
		case opRead:
			s := ft.live.pick(op.r)
			tr.Begin(spanVfsRead)
			data, rerr := v.Read(t, sb, ft.names[s][ft.variant[s]], 0, fsFileBytes)
			tr.End()
			cls, err, moved = clsRead, rerr, uint64(len(data))
			if err == nil && (len(data) != fsFileBytes ||
				!bytes.Equal(data[:mem.PageSize], images[ft.ver[s][0]][:mem.PageSize]) ||
				!bytes.Equal(data[mem.PageSize:], images[ft.ver[s][1]][mem.PageSize:])) {
				err = fmt.Errorf("read %s: contents differ from the model", ft.names[s][ft.variant[s]])
			}
		case opWrite:
			s := ft.live.pick(op.r)
			off := uint64(op.page) * mem.PageSize
			tr.Begin(spanVfsWrite)
			n, werr := v.Write(t, sb, ft.names[s][ft.variant[s]], off, images[op.img][off:off+mem.PageSize])
			tr.End()
			cls, err, moved = clsWrite, werr, n
			if err == nil {
				ft.ver[s][op.page] = op.img
			}
		case opStat:
			s := ft.live.pick(op.r)
			tr.Begin(spanVfsStat)
			size, nlink, serr := v.Stat(t, sb, ft.names[s][ft.variant[s]])
			tr.End()
			err = serr
			if err == nil && (size != fsFileBytes || nlink != 1) {
				err = fmt.Errorf("stat %s: size %d nlink %d", ft.names[s][ft.variant[s]], size, nlink)
			}
		case opRename:
			s := ft.live.pick(op.r)
			from, to := ft.names[s][ft.variant[s]], ft.names[s][1-ft.variant[s]]
			tr.Begin(spanVfsRename)
			err = v.Rename(t, sb, from, sb, to)
			tr.End()
			if err == nil {
				ft.variant[s] ^= 1
			}
		case opCreate:
			s := ft.free.pick(op.r)
			path := ft.names[s][ft.variant[s]]
			tr.Begin(spanVfsCreate)
			_, err = v.Create(t, sb, path)
			tr.End()
			t1 := nowNs()
			tp.at(t1).cls[clsMeta].Record(t1 - t0)
			if err == nil {
				// The fill is a Write: it is sampled in the write class, and
				// the op's overall latency covers create plus fill.
				tr.Begin(spanVfsWrite)
				n, werr := v.Write(t, sb, path, 0, images[op.img])
				tr.End()
				t2 := nowNs()
				tp.at(t2).cls[clsWrite].Record(t2 - t1)
				err, moved = werr, n
			}
			if err == nil {
				ft.ver[s] = [2]uint8{op.img, op.img}
				ft.free.remove(s)
				ft.live.add(s)
			}
			cls = -1
		case opUnlink:
			s := ft.live.pick(op.r)
			tr.Begin(spanVfsUnlink)
			err = v.Unlink(t, sb, ft.names[s][ft.variant[s]])
			tr.End()
			if err == nil {
				ft.live.remove(s)
				ft.free.add(s)
			}
		case opSync:
			tr.Begin(spanVfsSync)
			err = v.Sync(t, sb)
			tr.End()
			cls = -1
		}
		t2 := nowNs()
		tr.End()
		sl := tp.at(t2)
		if cls >= 0 {
			sl.cls[cls].Record(t2 - t0)
		}
		sl.all.Record(t2 - t0)
		if err != nil {
			tp.failed++
			return fmt.Errorf("fs-mix op %d: %w", op.kind, err)
		}
		sl.ops++
		sl.bytes += moved
		if j := (t2 - start) / sliceNs; j >= 0 && j < int64(len(ft.slices)) {
			ft.slices[j]++
		}
		if o.maxOps > 0 {
			if tp.attempted >= o.maxOps {
				return nil
			}
		} else if t2 >= deadline {
			return nil
		}
	}
}

// slotSet is a set of name slots with O(1) add, remove and pick.
type slotSet struct {
	items [fsSlots]uint16
	n     int
	pos   [fsSlots]int // index in items, valid while the slot is a member
}

func (ss *slotSet) add(s uint16) {
	ss.items[ss.n], ss.pos[s] = s, ss.n
	ss.n++
}

func (ss *slotSet) remove(s uint16) {
	ss.n--
	last := ss.items[ss.n]
	ss.items[ss.pos[s]], ss.pos[last] = last, ss.pos[s]
}

// pick selects a member by a planned random number.
func (ss *slotSet) pick(r uint32) uint16 { return ss.items[int(r)%ss.n] }

// check compares each mount's namespace with the shadow model after the
// window: the directory lists exactly the live files, each at full size.
func (b *fsBench) check(p *Pass) error {
	for i := 0; i < b.active; i++ {
		ft := b.thr[i]
		ents, err := b.v.Readdir(ft.th, ft.sb, "/")
		if err != nil {
			return fmt.Errorf("fs-mix: readdir: %w", err)
		}
		if len(ents) != ft.live.n {
			return fmt.Errorf("fs-mix: mount %d lists %d files, model has %d", i+1, len(ents), ft.live.n)
		}
		for _, s := range ft.live.items[:ft.live.n] {
			path := ft.names[s][ft.variant[s]]
			if size, _, err := b.v.Stat(ft.th, ft.sb, path); err != nil || size != fsFileBytes {
				return fmt.Errorf("fs-mix: %s: size %d, err %v", path, size, err)
			}
		}
	}
	return nil
}
